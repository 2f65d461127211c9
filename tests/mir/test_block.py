"""Basic blocks and terminators."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MIRError
from repro.mir import (
    BasicBlock,
    Branch,
    Call,
    Exit,
    Fallthrough,
    Jump,
    MaskCase,
    Multiway,
    Ret,
    mop,
    preg,
)


class TestTerminators:
    def test_successors(self):
        assert Jump("a").successors() == ("a",)
        assert Fallthrough("b").successors() == ("b",)
        assert Branch("Z", "t", "f").successors() == ("t", "f")
        assert Ret().successors() == ()
        assert Exit().successors() == ()
        assert Call("p", "next").successors() == ("next",)

    def test_branch_condition_checked(self):
        with pytest.raises(MIRError):
            Branch("MAYBE", "t", "f")

    def test_tested_flag_strips_negation(self):
        assert Branch("NZ", "t", "f").tested_flag() == "Z"
        assert Branch("N", "t", "f").tested_flag() == "N"
        assert Branch("NUF", "t", "f").tested_flag() == "UF"
        assert Branch("C", "t", "f").tested_flag() == "C"


class TestMaskCase:
    def test_exact_match(self):
        assert MaskCase("1010", "t").matches(0b1010)
        assert not MaskCase("1010", "t").matches(0b1011)

    def test_dont_care_bits(self):
        case = MaskCase("1x0x", "t")
        for value in (0b1000, 0b1001, 0b1100, 0b1101):
            assert case.matches(value)
        assert not case.matches(0b0000)
        assert not case.matches(0b1010)

    def test_short_mask_ignores_high_bits(self):
        assert MaskCase("01", "t").matches(0b1101)  # only low 2 bits checked

    def test_bad_mask_rejected(self):
        with pytest.raises(MIRError):
            MaskCase("10z0", "t")
        with pytest.raises(MIRError):
            MaskCase("", "t")

    @staticmethod
    def bitwise_reference(mask: str, value: int) -> bool:
        """The original bit-by-bit match, kept as the reference."""
        for position, bit in enumerate(reversed(mask)):
            if bit == "x":
                continue
            if ((value >> position) & 1) != int(bit):
                return False
        return True

    @given(
        mask=st.text(alphabet="01x", min_size=1, max_size=40),
        value=st.integers(min_value=-(1 << 48), max_value=1 << 48),
    )
    def test_care_want_match_equals_bitwise_reference(self, mask, value):
        assert MaskCase(mask, "t").matches(value) \
            == self.bitwise_reference(mask, value)

    def test_pickles_unchanged_by_matching(self):
        """care/want are memoised per mask string, never stored on the
        case: a pickle from before the change still loads, and matching
        adds nothing to what pickles (compile-cache entries hold these)."""
        legacy = (
            b"\x80\x04\x95D\x00\x00\x00\x00\x00\x00\x00\x8c\x0frepro.mir"
            b".block\x94\x8c\x08MaskCase\x94\x93\x94)\x81\x94}\x94(\x8c\x04"
            b"mask\x94\x8c\x0301x\x94\x8c\x06target\x94\x8c\x03arm\x94ub."
        )
        case = pickle.loads(legacy)
        assert case == MaskCase("01x", "arm")
        assert case.matches(0b010) and not case.matches(0b110)
        assert pickle.dumps(case, protocol=4) == legacy

    def test_multiway_successors_include_default(self):
        multiway = Multiway(
            preg("R1"), (MaskCase("0", "a"), MaskCase("1", "b")), "d"
        )
        assert multiway.successors() == ("a", "b", "d")


class TestBasicBlock:
    def test_append_then_terminate(self):
        block = BasicBlock("b")
        block.append(mop("nop"))
        block.terminate(Jump("b"))
        assert block.terminated
        assert block.successors() == ("b",)

    def test_append_after_terminate_rejected(self):
        block = BasicBlock("b")
        block.terminate(Ret())
        with pytest.raises(MIRError):
            block.append(mop("nop"))

    def test_double_terminate_rejected(self):
        block = BasicBlock("b")
        block.terminate(Ret())
        with pytest.raises(MIRError):
            block.terminate(Ret())

    def test_successors_requires_terminator(self):
        with pytest.raises(MIRError):
            BasicBlock("b").successors()

    def test_str_contains_ops(self):
        block = BasicBlock("b", ops=[mop("add", preg("R1"), preg("R2"), preg("R3"))])
        block.terminate(Exit(preg("R1")))
        text = str(block)
        assert "b:" in text and "add R1" in text and "exit R1" in text
