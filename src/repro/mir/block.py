"""Basic blocks and terminators.

A basic block is a branch-free sequence of micro-operations — the unit
over which all the survey's composition algorithms operate ("a minimal
… sequence of microinstructions from a sequence of microoperations
(without branches)", §2.1.4) — ended by exactly one terminator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import MIRError
from repro.mir.operands import Reg
from repro.mir.ops import MicroOp

#: Conditions a conditional branch may test (flag or negated flag).
FLAG_CONDITIONS = ("Z", "NZ", "N", "NN", "C", "NC", "UF", "NUF")


@dataclass(frozen=True)
class Fallthrough:
    """Continue with the named block."""

    target: str

    def successors(self) -> tuple[str, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"fall {self.target}"


@dataclass(frozen=True)
class Jump:
    """Unconditional microbranch."""

    target: str

    def successors(self) -> tuple[str, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(frozen=True)
class Branch:
    """Conditional branch on a hardware flag condition."""

    cond: str
    target: str
    otherwise: str

    def __post_init__(self) -> None:
        if self.cond not in FLAG_CONDITIONS:
            raise MIRError(f"unknown branch condition {self.cond!r}")

    def successors(self) -> tuple[str, ...]:
        return (self.target, self.otherwise)

    def tested_flag(self) -> str:
        """The underlying flag (condition with negation stripped)."""
        return self.cond[1:] if self.cond.startswith("N") and self.cond != "N" else self.cond

    def __str__(self) -> str:
        return f"br {self.cond} -> {self.target} else {self.otherwise}"


@dataclass(frozen=True)
class MaskCase:
    """One arm of a multiway branch: a ternary mask and a target.

    The mask is a string over ``{'0', '1', 'x'}`` (YALLL's 'false',
    'true' and 'dont-care' bits, §2.2.4), most significant bit first.
    """

    mask: str
    target: str

    def __post_init__(self) -> None:
        if not self.mask or any(c not in "01x" for c in self.mask):
            raise MIRError(f"bad multiway mask {self.mask!r}")

    def matches(self, value: int) -> bool:
        """Whether a register value matches this mask."""
        care, want = mask_bits(self.mask)
        return value & care == want


@lru_cache(maxsize=None)
def mask_bits(mask: str) -> tuple[int, int]:
    """``(care, want)`` for a ternary mask: a value matches iff
    ``value & care == want``.  Memoised per mask string, so nothing
    is stored on :class:`MaskCase` (its pickles stay unchanged)."""
    care = int(mask.replace("0", "1").replace("x", "0"), 2)
    want = int(mask.replace("x", "0"), 2)
    return care, want


@dataclass(frozen=True)
class Multiway:
    """Mask-table multiway branch (hardware-supported on some machines)."""

    reg: Reg
    cases: tuple[MaskCase, ...]
    default: str

    def successors(self) -> tuple[str, ...]:
        return tuple(case.target for case in self.cases) + (self.default,)

    def __str__(self) -> str:
        arms = ", ".join(f"{c.mask}->{c.target}" for c in self.cases)
        return f"mjump {self.reg} ({arms}, default->{self.default})"


@dataclass(frozen=True)
class Call:
    """Microsubroutine call; control continues at ``next`` after return."""

    proc: str
    next: str

    def successors(self) -> tuple[str, ...]:
        # Interprocedural successors are resolved by the CFG builder;
        # intraprocedurally control continues at ``next``.
        return (self.next,)

    def __str__(self) -> str:
        return f"call {self.proc} then {self.next}"


@dataclass(frozen=True)
class Ret:
    """Return from microsubroutine."""

    def successors(self) -> tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return "ret"


@dataclass(frozen=True)
class Exit:
    """Terminate the microprogram, optionally yielding a value register."""

    value: Reg | None = None

    def successors(self) -> tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return f"exit {self.value}" if self.value else "exit"


#: Union of all terminator kinds.
Terminator = Fallthrough | Jump | Branch | Multiway | Call | Ret | Exit


@dataclass
class BasicBlock:
    """A labeled, branch-free run of micro-operations plus a terminator."""

    label: str
    ops: list[MicroOp] = field(default_factory=list)
    terminator: Terminator | None = None

    def append(self, op: MicroOp) -> None:
        if self.terminator is not None:
            raise MIRError(f"block {self.label!r} already terminated")
        self.ops.append(op)

    def terminate(self, terminator: Terminator) -> None:
        if self.terminator is not None:
            raise MIRError(f"block {self.label!r} already terminated")
        self.terminator = terminator

    @property
    def terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> tuple[str, ...]:
        if self.terminator is None:
            raise MIRError(f"block {self.label!r} has no terminator")
        return self.terminator.successors()

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"    {op}" for op in self.ops)
        if self.terminator is not None:
            lines.append(f"    {self.terminator}")
        return "\n".join(lines)
