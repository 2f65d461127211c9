"""The :class:`MicroArchitecture`: a complete machine description.

This formalism plays the role MPGL's machine-specification language
plays in the survey (§2.2.5): every tool in the pipeline — code
generators, composers, register allocators, the assembler and the
simulator — is driven by one of these descriptions, so adding a machine
means writing *data*, not code.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field as dataclass_field

from repro.errors import EncodingError, MachineError
from repro.machine.control import ControlWordFormat
from repro.machine.frozen import Sealable
from repro.machine.opspec import OpSpec, OperationTable
from repro.machine.registers import Register, RegisterFile
from repro.machine.units import FunctionalUnit


@dataclass
class MicroArchitecture(Sealable):
    """A user-microprogrammable machine, described as data.

    A description is frozen at construction: it is validated, every
    container becomes read-only (mutation raises
    :class:`~repro.errors.FrozenMachineError`) and its
    :attr:`fingerprint` is computed once.  Variants are made with
    :meth:`derive`, never by editing a built machine, so a fingerprint
    — and every cache entry keyed by one — can never go stale.

    Attributes:
        name: Machine name, e.g. ``"HM1"``.
        word_size: Datapath width in bits.
        registers: The register file.
        units: Functional units by name.
        control: Control-word format (fields + encodings).
        ops: Micro-operation table.
        n_phases: Phases per microcycle (1 for simple machines).
        allows_phase_chaining: Whether a consumer in a later phase may
            read a value produced earlier in the *same* microinstruction
            (the hardware behaviour behind S*'s ``cocycle``).
        memory_latency: Cycles per main-memory access.
        control_store_size: Number of microinstruction slots.
        micro_stack_depth: Hardware microsubroutine stack depth.
        scratchpad_size: Words of scratchpad local store reachable by
            ``ldscr``/``stscr`` (used by allocators for spilling).
        flags: Hardware condition flags (``Z``, ``N``, ``C``, ``UF`` …).
        has_multiway_branch: Whether the sequencer supports mask-table
            dispatch (YALLL's multiway branch, §2.2.4).
        notes: Free-form description used in reports.
        fingerprint: Stable digest of everything compilation can
            observe (see :meth:`_digest`); equal descriptions built
            independently share it, any variant gets its own.
    """

    name: str
    word_size: int
    registers: RegisterFile
    units: dict[str, FunctionalUnit]
    control: ControlWordFormat
    ops: OperationTable
    n_phases: int = 1
    allows_phase_chaining: bool = False
    memory_latency: int = 1
    control_store_size: int = 4096
    micro_stack_depth: int = 16
    scratchpad_size: int = 256
    flags: tuple[str, ...] = ("Z", "N", "C", "UF")
    has_multiway_branch: bool = False
    vertical: bool = False
    #: Optional register-connectivity graph (CHAMIL's datapath
    #: abstraction, survey §2.2.5).  None = fully connected.
    datapath: "object | None" = None
    notes: str = ""
    fingerprint: str = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.validate()
        self.fingerprint = self._digest()
        self.freeze()

    def derive(self, **changes) -> "MicroArchitecture":
        """A new frozen machine: this one with ``changes`` applied.

        ``changes`` name constructor fields (``name=``,
        ``allows_phase_chaining=``, ``units=``, ``ops=`` …); the copy is
        validated and fingerprinted afresh, and this machine is left
        untouched.  Build replacement tables from the frozen ones, e.g.
        ``units={**machine.units, "mem": slower}`` or
        ``ops=OperationTable.of(specs)``.
        """
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def unit(self, name: str) -> FunctionalUnit:
        try:
            return self.units[name]
        except KeyError:
            raise MachineError(f"{self.name}: unknown unit {name!r}") from None

    def reg(self, name: str) -> Register:
        return self.registers[name]

    def has_op(self, name: str) -> bool:
        return name in self.ops

    def op_variants(self, name: str) -> list[OpSpec]:
        return self.ops.variants(name)

    def op(self, name: str) -> OpSpec:
        return self.ops.default(name)

    def phase_of(self, spec: OpSpec) -> int:
        """Microcycle phase in which the given op variant executes."""
        return self.unit(spec.unit).phase

    def latency_of(self, spec: OpSpec) -> int:
        """Cycles the op variant needs (spec override, else unit)."""
        return spec.latency if spec.latency > 0 else self.unit(spec.unit).latency

    def mask(self) -> int:
        """All-ones mask at datapath width."""
        return (1 << self.word_size) - 1

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def resolve_settings(
        self,
        spec: OpSpec,
        dest: str | None,
        srcs: tuple[str | int, ...],
    ) -> dict[str, str | int]:
        """Resolve a spec's field settings against concrete operands.

        ``dest`` is a register name (or None); each source is a register
        name or an immediate integer.  Returns field→value settings
        suitable for :meth:`ControlWordFormat.pack` and for the conflict
        model in ``repro.compose``.
        """
        if len(srcs) != spec.n_srcs:
            raise EncodingError(
                f"{self.name}: op {spec.key} expects {spec.n_srcs} sources, "
                f"got {len(srcs)}"
            )
        if spec.has_dest and dest is None:
            raise EncodingError(f"{self.name}: op {spec.key} requires a destination")
        resolved: dict[str, str | int] = {}
        for field_name, value in spec.settings:
            if value == "$dest":
                resolved[field_name] = self._require_reg(spec, dest)
            elif value.startswith("$src"):
                index = int(value[4:])
                operand = srcs[index]
                if isinstance(operand, int):
                    raise EncodingError(
                        f"{self.name}: op {spec.key} source {index} must be "
                        f"a register, got immediate {operand}"
                    )
                resolved[field_name] = operand
            elif value.startswith("$imm"):
                index = int(value[4:])
                operand = srcs[index]
                if not isinstance(operand, int):
                    raise EncodingError(
                        f"{self.name}: op {spec.key} source {index} must be "
                        f"an immediate, got register {operand!r}"
                    )
                resolved[field_name] = operand
            else:
                resolved[field_name] = value
        return resolved

    def _require_reg(self, spec: OpSpec, name: str | None) -> str:
        if name is None:
            raise EncodingError(f"{self.name}: op {spec.key} requires a destination")
        return name

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency of the description.

        Raises :class:`MachineError` on the first inconsistency found:
        ops referencing unknown units or fields, literal micro-orders
        without encodings, units running in nonexistent phases, operand
        class constraints naming classes no register carries.
        """
        for unit in self.units.values():
            if unit.phase > self.n_phases:
                raise MachineError(
                    f"{self.name}: unit {unit.name!r} runs in phase {unit.phase} "
                    f"but machine has {self.n_phases} phases"
                )
        all_classes = set()
        for register in self.registers:
            all_classes.update(register.classes)
        for spec in self.ops:
            if spec.unit not in self.units:
                raise MachineError(
                    f"{self.name}: op {spec.key} uses unknown unit {spec.unit!r}"
                )
            for field_name, value in spec.settings:
                if field_name not in self.control:
                    raise MachineError(
                        f"{self.name}: op {spec.key} sets unknown field "
                        f"{field_name!r}"
                    )
                fld = self.control[field_name]
                if not value.startswith("$") and not fld.is_immediate:
                    if value not in fld.encodings:
                        raise MachineError(
                            f"{self.name}: op {spec.key}: field {field_name!r} "
                            f"has no encoding for literal {value!r}"
                        )
            for flag in (*spec.reads_flags, *spec.writes_flags):
                if flag not in self.flags:
                    raise MachineError(
                        f"{self.name}: op {spec.key} uses unknown flag {flag!r}"
                    )
            constrained = [spec.dest_class, *spec.src_classes]
            for cls in constrained:
                if cls is not None and cls not in all_classes:
                    raise MachineError(
                        f"{self.name}: op {spec.key} requires register class "
                        f"{cls!r} which no register carries"
                    )
        if self.datapath is not None:
            self.datapath.validate(set(self.registers.names()))

    def _digest(self) -> str:
        """Digest the description (not the object identity).

        Covers everything compilation can observe: datapath geometry
        and connectivity, the register file (including banking,
        windows, macro-visibility and read-only flags),
        functional-unit timing, every field of every op spec and the
        control-word format.  Notes and other report-only attributes are
        deliberately excluded.
        """
        files = self.registers
        parts: list[str] = [
            self.name,
            str(self.word_size),
            str(self.n_phases),
            str(int(self.allows_phase_chaining)),
            str(self.memory_latency),
            str(self.control_store_size),
            str(self.micro_stack_depth),
            str(self.scratchpad_size),
            ",".join(self.flags),
            str(int(self.has_multiway_branch)),
            str(int(self.vertical)),
            f"banks={files.n_banks};ptr={files.bank_pointer}",
        ]
        for register in files:
            parts.append(
                f"reg:{register.name}:{register.width}:"
                f"{','.join(sorted(register.classes))}:"
                f"{int(register.auto_increment)}{int(register.macro_visible)}"
                f"{int(register.readonly)}:{register.reset}:"
                f"{files.bank_of.get(register.name, -1)}"
            )
        for window, physical in sorted(files.windows.items()):
            parts.append(f"win:{window}:{','.join(physical)}")
        for name, unit in sorted(self.units.items()):
            parts.append(f"unit:{name}:{unit.phase}:{unit.count}:{unit.latency}")
        for name in sorted(self.ops.names()):
            # Every OpSpec field: flags, classes and commutativity steer
            # dependence analysis, allocation and composition too.
            parts.extend(f"op:{spec!r}" for spec in self.ops.variants(name))
        for fld in self.control:
            parts.append(
                f"fld:{fld.name}:{fld.width}:{int(fld.is_immediate)}:"
                f"{fld.nop_code}:{sorted(fld.encodings.items())!r}"
            )
        if self.datapath is not None:
            for source, targets in sorted(self.datapath.direct.items()):
                parts.append(f"path:{source}:{','.join(sorted(targets))}")
            parts.append(
                f"routing:{','.join(sorted(self.datapath.routing_registers))}"
            )
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:16]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-paragraph description for reports and listings."""
        kind = "vertical" if self.vertical else "horizontal"
        return (
            f"{self.name}: {kind} machine, {self.word_size}-bit datapath, "
            f"{len(self.registers)} registers, {len(self.units)} units, "
            f"{self.control.width}-bit control word ({len(self.control)} fields), "
            f"{self.n_phases} phase(s)/cycle"
            + (", phase chaining" if self.allows_phase_chaining else "")
            + (f". {self.notes}" if self.notes else "")
        )
