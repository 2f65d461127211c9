"""Registers, register classes and register files.

A microarchitecture exposes a *heterogeneous* register set (survey
§2.1.3): registers differ in width, in which micro-operations can touch
them, and in whether they are part of the macroarchitecture (and hence
saved/restored around microtraps — the root of the ``incread`` bug of
§2.1.5).  Register *classes* are plain string tags; an operation spec
may require an operand to belong to a given class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.frozen import Sealable

#: Class tag carried by every general purpose register.
GPR = "gpr"
#: Class tag for the memory address register.
MAR = "mar"
#: Class tag for the memory buffer (data) register.
MBR = "mbr"
#: Class tag for registers holding constants / masks (read-only store).
CONST = "const"


@dataclass(frozen=True)
class Register:
    """A single machine register.

    Attributes:
        name: Unique register name, e.g. ``"R3"`` or ``"mar"``.
        width: Width in bits.
        classes: Register-class tags; operation specs constrain operands
            by class (survey §2.1.3, "the microregister set is generally
            not homogeneous").
        auto_increment: Whether the hardware can post-increment this
            register without using the ALU (§2.1.2's macroprogram
            counter example).
        macro_visible: Whether the register is part of the
            macroarchitecture and therefore saved/restored around
            microtraps (§2.1.5).
        readonly: Whether the register is a hardwired constant/mask.
        reset: Power-on value.
    """

    name: str
    width: int
    classes: frozenset[str] = frozenset({GPR})
    auto_increment: bool = False
    macro_visible: bool = False
    readonly: bool = False
    reset: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise MachineError(f"register {self.name!r} must have positive width")
        if self.reset < 0 or self.reset >= (1 << self.width):
            raise MachineError(
                f"register {self.name!r}: reset value {self.reset} "
                f"does not fit in {self.width} bits"
            )

    @property
    def mask(self) -> int:
        """All-ones mask for this register's width."""
        return (1 << self.width) - 1

    def is_in(self, register_class: str) -> bool:
        """Whether this register carries the given class tag."""
        return register_class in self.classes


def gpr(name: str, width: int, *extra_classes: str, **kwargs) -> Register:
    """Convenience constructor for a general purpose register."""
    return Register(name, width, classes=frozenset({GPR, *extra_classes}), **kwargs)


def const_register(name: str, width: int, value: int) -> Register:
    """Convenience constructor for a hardwired constant/mask register."""
    return Register(
        name,
        width,
        classes=frozenset({CONST}),
        readonly=True,
        reset=value & ((1 << width) - 1),
    )


@dataclass
class RegisterFile(Sealable):
    """The complete register set of a machine.

    Supports *register banks* (Interdata 3200 style, survey §2.1.2): a
    bank is a group of registers selected by a bank pointer; the
    ``bank_of`` mapping records which bank each banked register belongs
    to so code generators can reason about the ``new-block`` primitive.

    Built up with :meth:`add` / :meth:`add_window`, then frozen with
    the machine that owns it.
    """

    registers: dict[str, Register] = field(default_factory=dict)
    bank_of: dict[str, int] = field(default_factory=dict)
    n_banks: int = 1
    #: Window name -> physical register name per bank.  A *window* is a
    #: programmer-visible register name (e.g. ``G3``) that resolves to a
    #: different physical register depending on the current bank pointer
    #: (Interdata 3200 style, survey §2.1.2).
    windows: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Name of the register holding the current bank number, if banked.
    bank_pointer: str | None = None

    def add(self, register: Register, bank: int | None = None) -> Register:
        """Register a new register; returns it for chaining."""
        if register.name in self.registers:
            raise MachineError(f"duplicate register {register.name!r}")
        self.registers[register.name] = register
        if bank is not None:
            if not 0 <= bank < self.n_banks:
                raise MachineError(
                    f"register {register.name!r}: bank {bank} out of range "
                    f"(machine has {self.n_banks} banks)"
                )
            self.bank_of[register.name] = bank
        return register

    def add_window(self, name: str, physical: tuple[str, ...]) -> None:
        """Declare a banked window resolving to one physical reg per bank."""
        if len(physical) != self.n_banks:
            raise MachineError(
                f"window {name!r}: expected {self.n_banks} physical registers, "
                f"got {len(physical)}"
            )
        for phys in physical:
            if phys not in self.registers:
                raise MachineError(f"window {name!r} references unknown register {phys!r}")
        if name in self.registers or name in self.windows:
            raise MachineError(f"duplicate register/window name {name!r}")
        self.windows[name] = physical

    def is_window(self, name: str) -> bool:
        return name in self.windows

    def resolve_window(self, name: str, bank: int) -> str:
        """Physical register a window refers to under the given bank."""
        try:
            physical = self.windows[name]
        except KeyError:
            raise MachineError(f"unknown window {name!r}") from None
        if not 0 <= bank < len(physical):
            raise MachineError(f"bank {bank} out of range for window {name!r}")
        return physical[bank]

    def __contains__(self, name: str) -> bool:
        return name in self.registers or name in self.windows

    def __getitem__(self, name: str) -> Register:
        if name in self.windows:
            # A window inherits the description of its bank-0 register.
            return self.registers[self.windows[name][0]]
        try:
            return self.registers[name]
        except KeyError:
            raise MachineError(f"unknown register {name!r}") from None

    def __iter__(self):
        return iter(self.registers.values())

    def __len__(self) -> int:
        return len(self.registers)

    def names(self) -> list[str]:
        """All register names, in declaration order."""
        return list(self.registers)

    def in_class(self, register_class: str) -> list[Register]:
        """All registers carrying the given class tag."""
        return [r for r in self if r.is_in(register_class)]

    def allocatable(self, register_class: str = GPR) -> list[Register]:
        """Registers an allocator may hand out for the given class.

        Read-only registers, registers with reserved roles (mar/mbr)
        and the physical registers behind banked windows (reachable
        only through a window under the right bank pointer) are never
        allocatable as scratch.
        """
        windowed = {
            physical
            for physicals in self.windows.values()
            for physical in physicals
        }
        return [
            r
            for r in self.in_class(register_class)
            if not r.readonly
            and MAR not in r.classes
            and MBR not in r.classes
            and r.name not in windowed
        ]

    def macro_visible(self) -> list[Register]:
        """Registers saved/restored around microtraps (§2.1.5)."""
        return [r for r in self if r.macro_visible]
