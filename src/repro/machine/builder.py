"""Fluent builder for machine descriptions.

Concrete machines (``repro.machine.machines``) are *data*; this builder
removes the boilerplate of wiring registers, control fields and op
specs together, and auto-assigns register-select encodings.
"""

from __future__ import annotations

import math

from repro.errors import MachineError
from repro.machine.control import ControlWordFormat, Field
from repro.machine.machine import MicroArchitecture
from repro.machine.opspec import OpSpec, OperationTable
from repro.machine.registers import Register, RegisterFile
from repro.machine.units import FunctionalUnit


class MachineBuilder:
    """Accumulates registers, units, fields and ops, then builds."""

    def __init__(self, name: str, word_size: int):
        self.name = name
        self.word_size = word_size
        self.registers = RegisterFile()
        self._units: dict[str, FunctionalUnit] = {}
        self._fields: list[Field] = []
        self._field_names: set[str] = set()
        self.ops = OperationTable()
        self.options: dict = {}

    # -- registers ------------------------------------------------------
    def reg(self, register: Register, bank: int | None = None) -> "MachineBuilder":
        self.registers.add(register, bank=bank)
        return self

    def regs(self, *registers: Register) -> "MachineBuilder":
        for register in registers:
            self.registers.add(register)
        return self

    # -- units ----------------------------------------------------------
    def unit(
        self, name: str, phase: int, count: int = 1, latency: int = 1
    ) -> "MachineBuilder":
        if name in self._units:
            raise MachineError(f"{self.name}: duplicate unit {name!r}")
        self._units[name] = FunctionalUnit(name, phase=phase, count=count, latency=latency)
        return self

    # -- fields ---------------------------------------------------------
    def field(self, field: Field) -> "MachineBuilder":
        if field.name in self._field_names:
            raise MachineError(f"{self.name}: duplicate field {field.name!r}")
        self._field_names.add(field.name)
        self._fields.append(field)
        return self

    def order_field(self, name: str, orders: list[str]) -> "MachineBuilder":
        """A field whose micro-orders are ``NOP`` plus the given list."""
        encodings = {"NOP": 0}
        encodings.update({order: index + 1 for index, order in enumerate(orders)})
        width = max(1, math.ceil(math.log2(len(encodings))))
        return self.field(Field(name, width=width, encodings=encodings))

    def select_field(self, name: str, reg_names: list[str]) -> "MachineBuilder":
        """A register-select field: ``NONE`` plus one code per register."""
        encodings = {"NONE": 0}
        for index, reg_name in enumerate(reg_names):
            if reg_name not in self.registers:
                raise MachineError(
                    f"{self.name}: select field {name!r} references unknown "
                    f"register {reg_name!r}"
                )
            encodings[reg_name] = index + 1
        width = max(1, math.ceil(math.log2(len(encodings))))
        return self.field(Field(name, width=width, encodings=encodings))

    def imm_field(self, name: str, width: int) -> "MachineBuilder":
        return self.field(Field(name, width=width, is_immediate=True))

    # -- ops --------------------------------------------------------------
    def op(
        self,
        name: str,
        unit: str,
        srcs: int,
        dest: bool,
        settings: dict[str, str],
        **kwargs,
    ) -> "MachineBuilder":
        self.ops.add(
            OpSpec(
                name=name,
                unit=unit,
                n_srcs=srcs,
                has_dest=dest,
                settings=tuple(settings.items()),
                **kwargs,
            )
        )
        return self

    def alu_ops(
        self,
        unit: str,
        op_field: str,
        a_field: str,
        b_field: str,
        d_field: str,
        names: list[str],
        **kwargs,
    ) -> "MachineBuilder":
        """Bulk-declare two-source ALU ops sharing a field layout.

        Only the arithmetic ops produce a carry; logical ops set Z/N
        (matching the datapath semantics in ``repro.sim.semantics``,
        which MPL's multi-precision carry chains rely on).
        """
        for name in names:
            carry = name in {"add", "sub", "adc"}
            self.op(
                name,
                unit,
                srcs=2,
                dest=True,
                settings={
                    op_field: name.upper(),
                    a_field: "$src0",
                    b_field: "$src1",
                    d_field: "$dest",
                },
                writes_flags=("Z", "N", "C") if carry else ("Z", "N"),
                reads_flags=("C",) if name == "adc" else (),
                commutative=name in {"add", "and", "or", "xor", "nand", "nor"},
                **kwargs,
            )
        return self

    def unary_ops(
        self,
        unit: str,
        op_field: str,
        a_field: str,
        d_field: str,
        names: list[str],
        **kwargs,
    ) -> "MachineBuilder":
        """Bulk-declare one-source ops sharing a field layout.

        inc/dec carry out; not/neg only set Z/N (see alu_ops)."""
        for name in names:
            carry = name in {"inc", "dec"}
            self.op(
                name,
                unit,
                srcs=1,
                dest=True,
                settings={op_field: name.upper(), a_field: "$src0", d_field: "$dest"},
                writes_flags=("Z", "N", "C") if carry else ("Z", "N"),
                **kwargs,
            )
        return self

    # -- finish -----------------------------------------------------------
    def build(self, **options) -> MicroArchitecture:
        """The validated, frozen machine (see :class:`MicroArchitecture`)."""
        merged = dict(self.options)
        merged.update(options)
        return MicroArchitecture(
            name=self.name,
            word_size=self.word_size,
            registers=self.registers,
            units=dict(self._units),
            control=ControlWordFormat(list(self._fields)),
            ops=self.ops,
            **merged,
        )
