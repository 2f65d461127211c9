"""Lockstep batched execution: parity, peel-off and admission.

The golden rule mirrors the decoded engine's: for any homogeneous
sweep, ``run_cases`` must be observably identical to running each
case on a fresh scalar decoded simulator — result fields, plan-cache
counters, every register and flag, memory contents, and even the
error *text* a failing lane reports.  Divergence (a trap, a different
branch direction, a datapath fault, budget exhaustion) peels the lane
onto the scalar engine, so identity holds by construction; these
tests pin that down on HM1 and CM1.  Without numpy, admission refuses
every batch and the scalar engine runs each case.
"""

import subprocess
import sys

import pytest

import repro.sim.batch as batch
from repro.asm import ControlStore
from repro.faults.campaign import default_trap_service
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
import repro.sim.admission as admission
from repro.sim import BatchCase, Simulator, engine_refusal, run_cases
from repro.sim.batch import HAVE_NUMPY, resolve_backend

MUL_SRC = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""

#: stor into unmapped pages pagefaults on every lane eventually.
MEM_SRC = """
    put base,0x40
loop:
    add addr,base,counter
    stor counter,addr
    load back,addr
    sub counter,counter,1
    jump loop if nonzero
    exit back
"""

#: ``00x1`` and ``0xx1`` overlap: the first matching arm wins.
MULTIWAY_SRC = """
    mjump x (0000 -> zero, 00x1 -> oddish, 0xx1 -> odd, default -> other)
zero:  put r,1
       exit r
oddish: put r,2
       exit r
other: put r,3
       exit r
odd:   put r,4
       exit r
"""

WEDGE_SRC = """
    put a,1
loop:
    add a,a,1
    jump loop
"""

STRAIGHT_SRC = """
    put a,2
    add a,a,3
    exit a
"""

def compiled(source, machine, name="prog"):
    return compile_yalll(source, machine, name=name)


def scalar_reference(machine, loaded, case, *, paging=False,
                     trap_service=None, max_cycles=200_000):
    """One case on a fresh scalar decoded simulator — the oracle."""
    store = ControlStore(machine)
    store.load(loaded)
    simulator = Simulator(machine, store, engine="decoded",
                          trap_service=trap_service)
    simulator.state.memory.paging_enabled = paging
    for name, value in case.registers.items():
        simulator.state.write_reg(name, value)
    for address, value in case.memory.items():
        simulator.state.memory.load_words(address, [value])
    result = error = None
    try:
        result = simulator.run(loaded.name, max_cycles=max_cycles)
    except Exception as exc:
        error = exc
    return result, error, simulator


def assert_lane_matches(outcome, reference, *, mem_region=None):
    result, error, simulator = reference
    if error is not None:
        assert outcome.result is None
        assert outcome.error is not None
        assert type(outcome.error) is type(error)
        assert str(outcome.error) == str(error)
    else:
        assert outcome.error is None
        got = outcome.result
        assert got.cycles == result.cycles
        assert got.instructions == result.instructions
        assert got.traps == result.traps
        assert got.interrupts_serviced == result.interrupts_serviced
        assert got.interrupt_wait_cycles == result.interrupt_wait_cycles
        assert got.exit_value == result.exit_value
        assert got.plan_cache == result.plan_cache
    assert outcome.registers == dict(simulator.state.registers)
    assert outcome.flags == dict(simulator.state.flags)
    if mem_region is not None:
        base, count = mem_region
        assert (outcome.memory.dump_words(base, count)
                == simulator.state.memory.dump_words(base, count))


def sweep(machine, loaded, cases, *, batches=(1, 4, 64), paging=False,
          trap_service=None, max_cycles=200_000, mem_region=None):
    """Every batch size against the scalar oracle."""
    references = [
        scalar_reference(machine, loaded, case, paging=paging,
                         trap_service=trap_service, max_cycles=max_cycles)
        for case in cases
    ]
    for size in batches:
        outcomes = run_cases(
            machine, loaded, cases, batch=size, paging=paging,
            trap_service=trap_service, max_cycles=max_cycles,
        )
        assert len(outcomes) == len(cases)
        for outcome, reference in zip(outcomes, references):
            assert_lane_matches(outcome, reference, mem_region=mem_region)
    return references


class TestBackends:
    def test_resolve_backend_auto_prefers_numpy(self):
        expected = "numpy" if HAVE_NUMPY else "scalar"
        assert resolve_backend("auto") == expected

    def test_unknown_backend_rejected(self):
        from repro.errors import SimulationError

        for name in ("cuda", "python"):
            with pytest.raises(SimulationError):
                resolve_backend(name)

    def test_missing_numpy_refuses_batching(self, monkeypatch):
        """No numpy: the batch is refused and every case runs on the
        scalar engine, unpeeled."""
        monkeypatch.setattr(admission, "HAVE_NUMPY", False)
        machine = get_machine("HM1")
        assert engine_refusal("decoded", machine, lanes=4) == "no-numpy"
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [BatchCase(registers={mapping["a"]: 3, mapping["n"]: n})
                 for n in (1, 4)]
        outcomes = run_cases(machine, result.loaded, cases, batch=4)
        assert [o.result.exit_value for o in outcomes] == [3, 12]
        assert not any(o.peeled for o in outcomes)

    def _without_numpy(self, tmp_path, code):
        (tmp_path / "numpy.py").write_text("raise ImportError('absent')\n")
        src = str(batch.__file__).rsplit("/repro/", 1)[0]
        probe = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": f"{tmp_path}:{src}"},
        )
        assert probe.returncode == 0, probe.stderr
        return probe.stdout.split()

    def test_import_without_numpy_is_clean(self, tmp_path):
        """The module import survives an unimportable numpy."""
        assert self._without_numpy(
            tmp_path,
            "import repro.sim.batch as b;"
            "print(b.HAVE_NUMPY, b.resolve_backend('auto'))",
        ) == ["False", "scalar"]

    def test_cli_import_leaves_numpy_unloaded(self):
        """``import repro.cli`` never imports numpy; the first lockstep
        admission does."""
        src = str(batch.__file__).rsplit("/repro/", 1)[0]
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli;"
             "print('numpy' in sys.modules);"
             "from repro.machine.machines import get_machine;"
             "from repro.sim import engine_refusal;"
             "engine_refusal('decoded', get_machine('HM1'), lanes=4);"
             "print('numpy' in sys.modules)"],
            capture_output=True, text=True, env={"PYTHONPATH": src},
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.split() == ["False", str(HAVE_NUMPY)]

    def test_no_numpy_batch_is_byte_identical_to_scalar(self, tmp_path):
        """With numpy unimportable, ``run_cases(batch=64)`` is refused
        with ``no-numpy`` and its outcomes render byte for byte like
        ``batch=1``'s."""
        code = f"""
import json
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.sim import BatchCase, engine_refusal, run_cases
machine = get_machine("HM1")
result = compile_yalll({MUL_SRC!r}, machine, name="mul")
m = result.allocation.mapping
cases = [BatchCase(registers={{m["a"]: 3, m["n"]: n}}) for n in range(9)]
def render(outcomes):
    return json.dumps([[vars(o.result), o.registers, o.flags, o.peeled]
                       for o in outcomes], sort_keys=True)
print(engine_refusal("decoded", machine, lanes=64))
print(render(run_cases(machine, result.loaded, cases, batch=64))
      == render(run_cases(machine, result.loaded, cases, batch=1)))
"""
        assert self._without_numpy(tmp_path, code) == ["no-numpy", "True"]


class TestLockstepParity:
    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_heterogeneous_branch_counts(self, machine_name):
        """Different loop trip counts force branch-direction peels."""
        machine = get_machine(machine_name)
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 3, mapping["n"]: n})
            for n in (0, 1, 5, 5, 12, 2, 7, 5)
        ]
        sweep(machine, result.loaded, cases)

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_identical_lanes_stay_batched(self, machine_name):
        machine = get_machine(machine_name)
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 5, mapping["n"]: 7})
            for _ in range(8)
        ]
        references = sweep(machine, result.loaded, cases)
        assert references[0][0].exit_value == 35
        # Nothing diverges, so the whole batch finishes in lockstep.
        outcomes = run_cases(machine, result.loaded, cases, batch=8)
        assert all(not o.peeled for o in outcomes)

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_trap_divergence_peels(self, machine_name):
        """Pagefaulting lanes peel to the scalar engine + trap service."""
        machine = get_machine(machine_name)
        result = compiled(MEM_SRC, machine, name="mem")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["counter"]: counter})
            for counter in (8, 3, 8, 1)
        ]
        references = sweep(
            machine, result.loaded, cases, paging=True,
            trap_service=default_trap_service,
            mem_region=(0x40, 16),
        )
        assert references[0][0].traps > 0
        outcomes = run_cases(
            machine, result.loaded, cases, batch=4, paging=True,
            trap_service=default_trap_service,
        )
        assert all(o.peeled for o in outcomes)

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_fault_divergence_unserviced_trap(self, machine_name):
        """No trap service: lanes peel and the scalar replay's error
        text is reported verbatim per lane."""
        machine = get_machine(machine_name)
        result = compiled(MEM_SRC, machine, name="mem")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["counter"]: counter})
            for counter in (4, 2)
        ]
        references = sweep(machine, result.loaded, cases, paging=True)
        assert all(error is not None for _, error, _ in references)

    def test_multiway_divergence_peels(self):
        machine = get_machine("HM1")
        result = compiled(MULTIWAY_SRC, machine, name="disp")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["x"]: x})
            for x in (1, 0, 2, 3, 8, 5, 1, 3)
        ]
        references = sweep(machine, result.loaded, cases)
        assert [r.exit_value for r, _, _ in references] \
            == [2, 1, 3, 2, 3, 4, 2, 2]

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_budget_exhaustion_matches_scalar_error(self, machine_name):
        machine = get_machine(machine_name)
        result = compiled(WEDGE_SRC, machine, name="wedge")
        cases = [BatchCase() for _ in range(3)]
        references = sweep(machine, result.loaded, cases,
                           max_cycles=500)
        from repro.errors import SimulationLimitError

        assert all(isinstance(error, SimulationLimitError)
                   for _, error, _ in references)

    def test_ragged_tail_chunking(self):
        """A case count that does not divide the batch size still
        merges back in case order."""
        machine = get_machine("HM1")
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 2, mapping["n"]: n})
            for n in range(7)
        ]
        outcomes = run_cases(machine, result.loaded, cases, batch=3)
        assert [o.result.exit_value for o in outcomes] == [
            2 * n for n in range(7)
        ]


class TestPlantHook:
    def test_lane_zero_corruption_is_visible_and_contained(self):
        """PLANT_LANE_XOR flips only the leader's committed values; a
        straight-line program keeps every lane live, so the follower
        lanes must still be byte-correct."""
        machine = get_machine("HM1")
        result = compiled(STRAIGHT_SRC, machine, name="straight")
        cases = [BatchCase() for _ in range(4)]
        batch.PLANT_LANE_XOR = 1
        try:
            outcomes = run_cases(machine, result.loaded, cases, batch=4)
        finally:
            batch.PLANT_LANE_XOR = 0
        assert outcomes[0].result.exit_value != 5
        assert [o.result.exit_value for o in outcomes[1:]] == [5, 5, 5]
        # Peeled lanes replay on the scalar engine, out of the plant's
        # reach — which is exactly why the difftest self-check must
        # catch the corruption while lanes are still batched.
        clean = run_cases(machine, result.loaded, cases, batch=4)
        assert [o.result.exit_value for o in clean] == [5, 5, 5, 5]


class TestAdmission:
    def test_refusal_reasons(self):
        machine = get_machine("HM1")

        def refuse(engine="decoded", **kw):
            return engine_refusal(engine, machine, **kw)

        assert refuse(lanes=1) == "batch=1"
        assert refuse("traced", lanes=4) == "engine=traced"
        assert refuse(lanes=4, injector=True) == "injector"
        assert refuse(lanes=4, recorder=True) == "recorder"
        assert refuse(lanes=4, trace=True) == "trace"
        assert refuse(lanes=4, interrupt_every=7) == "interrupt_every"
        assert refuse(lanes=4, deadline_s=1.0) == "deadline"
        assert refuse(lanes=4) is None

    def test_trace_jit_reasons(self):
        """A scalar run (no ``lanes``) asks about the trace JIT, which
        tolerates a recorder and a deadline but no per-MI hook."""
        machine = get_machine("HM1")
        assert engine_refusal("decoded", machine) == "engine=decoded"
        assert engine_refusal("traced", machine, injector=object()) \
            == "injector"
        assert engine_refusal("traced", machine, trace=[]) == "trace"
        assert engine_refusal("traced", machine, interrupt_every=5) \
            == "interrupt_every"
        assert engine_refusal("traced", machine, recorder=object(),
                              deadline_s=1.0) is None

    def test_banked_windows_refused(self):
        machine = get_machine("ID3200m")
        assert engine_refusal("decoded", machine, lanes=4) \
            == "banked-windows"

    def test_refused_admission_runs_scalar_unpeeled(self):
        """engine != decoded refuses lockstep; results still come from
        the requested engine and are not marked as peels."""
        machine = get_machine("HM1")
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 4, mapping["n"]: 3})
            for _ in range(3)
        ]
        outcomes = run_cases(machine, result.loaded, cases, batch=3,
                             engine="interpretive")
        assert all(not o.peeled for o in outcomes)
        assert [o.result.exit_value for o in outcomes] == [12, 12, 12]
        # The interpretive engine never synthesises plan counters.
        assert all(o.result.plan_cache is None for o in outcomes)
