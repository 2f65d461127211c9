"""Frozen machine descriptions: immutability, derive, fingerprints.

A built machine is immutable and fingerprinted once; variants come
from ``derive(...)`` and always carry their own fingerprint, so a
compile-cache entry keyed by a fingerprint can never go stale.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.cache import CompileCache, machine_fingerprint
from repro.errors import FrozenMachineError, MachineError
from repro.lang.yalll import compile_yalll
from repro.machine.opspec import OperationTable, OpSpec
from repro.machine.registers import gpr
from repro.registry import build_machine, get_machine_spec

YALLL_SRC = """
    put total,0
    put counter,5
loop:
    add total,total,counter
    sub counter,counter,1
    jump loop if nonzero
    exit total
"""


class TestImmutability:
    @pytest.mark.parametrize("attribute, value", [
        ("name", "HM2"),
        ("allows_phase_chaining", False),
        ("memory_latency", 9),
        ("fingerprint", "0" * 16),
    ])
    def test_attribute_assignment_raises(self, hm1, attribute, value):
        before = getattr(hm1, attribute)
        with pytest.raises(FrozenMachineError):
            setattr(hm1, attribute, value)
        assert getattr(hm1, attribute) == before

    def test_units_cannot_grow_or_change(self, hm1):
        mem = hm1.units["mem"]
        with pytest.raises(FrozenMachineError):
            hm1.units["warp"] = mem
        with pytest.raises(FrozenMachineError):
            hm1.units["mem"] = dataclasses.replace(mem, latency=9)
        with pytest.raises(FrozenMachineError):
            hm1.units.pop("mem")
        assert "warp" not in hm1.units and hm1.units["mem"] is mem

    def test_ops_cannot_grow(self, hm1):
        with pytest.raises(FrozenMachineError):
            hm1.ops.add(OpSpec("bogus", "alu", 0, False, ()))
        with pytest.raises(FrozenMachineError):
            hm1.ops._variants["mov"] = ()
        assert not hm1.has_op("bogus")

    def test_registers_cannot_grow(self, hm1):
        with pytest.raises(FrozenMachineError):
            hm1.registers.add(gpr("R99", 16))
        with pytest.raises(FrozenMachineError):
            hm1.registers.registers["R99"] = gpr("R99", 16)
        assert "R99" not in hm1.registers

    def test_control_and_datapath_are_frozen(self, hm1):
        with pytest.raises(FrozenMachineError):
            hm1.control["alu_op"].encodings["WARP"] = 1
        with pytest.raises(FrozenMachineError):
            hm1.control.width = 1
        cm1 = build_machine("CM1")
        with pytest.raises(FrozenMachineError):
            cm1.datapath.connect("R1", "R2")

    def test_error_is_a_typed_machine_error(self, hm1):
        with pytest.raises(MachineError, match="derive"):
            hm1.name = "HM2"

    def test_pickle_and_deepcopy_stay_frozen(self, hm1):
        for twin in (pickle.loads(pickle.dumps(hm1)), copy.deepcopy(hm1)):
            assert twin is not hm1
            assert twin.fingerprint == hm1.fingerprint
            with pytest.raises(FrozenMachineError):
                twin.units["warp"] = twin.units["mem"]


class TestFingerprint:
    def test_stored_once_and_equal_to_a_fresh_digest(self, hm1):
        assert machine_fingerprint(hm1) == hm1.fingerprint
        assert hm1._digest() == hm1.fingerprint

    def test_build_machine_is_memoised_per_process(self):
        shared = build_machine("HP300m")
        assert build_machine("HP300m") is shared
        fresh = get_machine_spec("HP300m").build()
        assert fresh is not shared
        assert fresh.fingerprint == shared.fingerprint


class TestDerive:
    def test_derive_makes_a_new_frozen_machine(self, hm1):
        variant = hm1.derive(allows_phase_chaining=False)
        assert variant is not hm1
        assert hm1.allows_phase_chaining and not variant.allows_phase_chaining
        assert variant.fingerprint != hm1.fingerprint
        with pytest.raises(FrozenMachineError):
            variant.name = "HM2"

    @pytest.mark.parametrize("changes", [
        {"name": "HM1-renamed"},
        {"memory_latency": 7},
        {"scratchpad_size": 128},
    ])
    def test_every_observable_change_refingerprints(self, hm1, changes):
        assert hm1.derive(**changes).fingerprint != hm1.fingerprint

    def test_unit_and_op_tables_refingerprint(self, hm1):
        slow = dataclasses.replace(hm1.units["mem"], latency=8)
        assert hm1.derive(
            units={**hm1.units, "mem": slow}
        ).fingerprint != hm1.fingerprint
        # Op flags steer dependence analysis: part of the digest too.
        specs = [
            dataclasses.replace(spec, writes_flags=("Z",))
            if spec.name == "add" else spec
            for spec in hm1.ops
        ]
        assert hm1.derive(
            ops=OperationTable.of(specs)
        ).fingerprint != hm1.fingerprint
        cm1 = build_machine("CM1")
        # Same name, no routing graph: the datapath is part of the digest.
        assert cm1.derive(datapath=None).fingerprint != cm1.fingerprint

    def test_report_only_changes_keep_the_fingerprint(self, hm1):
        assert hm1.derive(notes="annotated").fingerprint == hm1.fingerprint

    def test_derive_validates(self, hm1):
        with pytest.raises(MachineError):
            hm1.derive(n_phases=1)  # units run in phases 2 and 3


class TestCacheStaleness:
    def test_cache_warmed_on_hm1_misses_for_a_derived_variant(self, hm1):
        cache = CompileCache()
        first = compile_yalll(YALLL_SRC, hm1, cache=cache)
        assert compile_yalll(YALLL_SRC, hm1, cache=cache) is first
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        # Same name, different description: must never hit HM1's entry.
        variant = hm1.derive(allows_phase_chaining=False)
        second = compile_yalll(YALLL_SRC, variant, cache=cache)
        assert second is not first
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)
