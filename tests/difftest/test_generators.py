"""Difftest generators: registration, determinism, validity.

The generators are only useful if every case they emit actually
compiles and runs on its target machine — a generator that produces
invalid programs turns every campaign into noise.  These tests pin
that property over a seed sweep for all five languages on all three
reference machines, plus the structural invariants the oracle relies
on (observe lists, memory regions, deterministic output per seed).
"""

import pytest

from repro.difftest import GeneratedCase, generate_case
from repro.registry import (
    RegistryError,
    build_machine,
    generator_names,
    get_generator,
    get_language,
    language_names,
)

MACHINES = ("HM1", "CM1", "VM1")
LANGS = ("empl", "mpl", "simpl", "sstar", "yalll")


class TestRefusal:
    def test_small_register_pool_is_a_typed_refusal(self):
        from repro.difftest.generators import GeneratorRefusal
        from repro.errors import ReproError

        with pytest.raises(GeneratorRefusal, match="register pool"):
            generate_case("simpl", build_machine("ID3200m"), 0)
        assert issubclass(GeneratorRefusal, ReproError)


class TestRegistry:
    def test_every_language_has_a_generator(self):
        assert generator_names() == language_names()

    def test_lookup_by_name(self):
        assert callable(get_generator("yalll"))

    def test_unknown_generator_raises(self):
        with pytest.raises(RegistryError, match="no difftest generator"):
            get_generator("cobol")


class TestDeterminism:
    @pytest.mark.parametrize("lang", LANGS)
    def test_same_seed_same_case(self, lang):
        machine_a, machine_b = build_machine("HM1"), build_machine("HM1")
        a = generate_case(lang, machine_a, 42)
        b = generate_case(lang, machine_b, 42)
        assert a == b

    def test_different_seeds_differ(self):
        machine = build_machine("HM1")
        sources = {
            generate_case("yalll", build_machine("HM1"), seed).source
            for seed in range(8)
        }
        assert len(sources) > 1


class TestValidity:
    @pytest.mark.parametrize("lang", LANGS)
    @pytest.mark.parametrize("machine_name", MACHINES)
    def test_generated_cases_compile(self, lang, machine_name):
        spec = get_language(lang)
        for seed in range(5):
            machine = build_machine(machine_name)
            case = generate_case(lang, machine, seed)
            result = spec.compile(case.source, machine)
            assert result.loaded.words, f"{lang}/{machine_name}/{seed}"

    @pytest.mark.parametrize("lang", LANGS)
    def test_case_metadata_is_coherent(self, lang):
        for seed in range(5):
            case = generate_case(lang, build_machine("HM1"), seed)
            assert isinstance(case, GeneratedCase)
            assert case.seed == seed
            assert case.lang == lang
            assert case.machine == "HM1"
            assert case.observe
            if case.mem_region is not None:
                assert case.uses_memory
                assert case.memory
            if case.has_stores:
                assert case.uses_memory

    def test_size_controls_program_length(self):
        small = generate_case("yalll", build_machine("HM1"), 0, size=4)
        large = generate_case("yalll", build_machine("HM1"), 0, size=30)
        assert len(large.source.splitlines()) > len(small.source.splitlines())

    def test_with_source_preserves_identity(self):
        case = generate_case("yalll", build_machine("HM1"), 0)
        clone = case.with_source("    exit fold\n")
        assert clone.source == "    exit fold\n"
        assert (clone.lang, clone.machine, clone.seed) == (
            case.lang, case.machine, case.seed,
        )
