"""Micro-operation specifications.

An :class:`OpSpec` describes one way a machine can realize a semantic
micro-operation: which functional unit runs it, in which phase, and —
crucially for conflict detection — which control-word fields it
occupies and with what values.  A machine may provide several *variants*
of one operation (e.g. three register-move paths in different phases);
the composer picks whichever variant fits the microinstruction being
built, which is exactly the "instruction formats" consideration of
Tokoro et al. [21].

Field-setting values are either literal micro-order names or
*placeholders* resolved against the concrete operands of a micro-op:

========= =====================================================
``$dest``   the destination register name
``$srcN``   the N-th source register name (0-based)
``$immN``   the N-th source, which must be an immediate value
========= =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.errors import MachineError
from repro.machine.frozen import Sealable

#: Operand placeholder prefixes recognized in field settings.
DEST = "$dest"
SRC = "$src"
IMM = "$imm"


@dataclass(frozen=True)
class OpSpec:
    """One realizable variant of a semantic micro-operation.

    Attributes:
        name: Semantic operation name (``"add"``, ``"mov"``, ``"read"``…).
        unit: Functional unit that executes it.
        n_srcs: Number of source operands.
        has_dest: Whether the op writes a destination register.
        settings: Field settings as ``(field, value-or-placeholder)``
            pairs; this is the op's control-word footprint.
        variant: Disambiguates multiple variants of the same name.
        latency: Overrides the unit latency when > 0.
        commutative: Sources may be swapped (lets composers retry with
            operands exchanged when bus assignments conflict).
        reads_flags: Condition flags the op reads (e.g. shifter ``UF``).
        writes_flags: Condition flags the op writes.
        dest_class: Required register class of the destination.
        src_classes: Required register class per source (None = any).
        imm_srcs: Indices of sources that must be immediates.
        reads_dest: The op also *reads* its destination (read-modify-
            write, e.g. bit-field deposit); dependence analysis must
            treat the destination as a source too.
    """

    name: str
    unit: str
    n_srcs: int
    has_dest: bool
    settings: tuple[tuple[str, str], ...]
    variant: str = ""
    latency: int = 0
    commutative: bool = False
    reads_flags: tuple[str, ...] = ()
    writes_flags: tuple[str, ...] = ()
    dest_class: str | None = None
    src_classes: tuple[str | None, ...] = ()
    imm_srcs: frozenset[int] = frozenset()
    reads_dest: bool = False

    def __post_init__(self) -> None:
        if self.src_classes and len(self.src_classes) != self.n_srcs:
            raise MachineError(
                f"op {self.key}: src_classes length {len(self.src_classes)} "
                f"!= n_srcs {self.n_srcs}"
            )
        for index in self.imm_srcs:
            if not 0 <= index < self.n_srcs:
                raise MachineError(f"op {self.key}: imm source index {index} out of range")

    @property
    def key(self) -> str:
        """Unique ``name[/variant]`` identifier of this spec."""
        return f"{self.name}/{self.variant}" if self.variant else self.name

    def src_class(self, index: int) -> str | None:
        """Required register class for the index-th source, if any."""
        if not self.src_classes:
            return None
        return self.src_classes[index]

    def fields_used(self) -> frozenset[str]:
        """Names of all control-word fields this spec occupies."""
        return frozenset(name for name, _ in self.settings)


@dataclass
class OperationTable(Sealable):
    """All micro-operations a machine provides, grouped by name."""

    _variants: dict[str, list[OpSpec]] = dataclass_field(default_factory=dict)

    @classmethod
    def of(cls, specs) -> "OperationTable":
        """A table holding ``specs`` in order (for derived machines)."""
        table = cls()
        for spec in specs:
            table.add(spec)
        return table

    def add(self, spec: OpSpec) -> OpSpec:
        variants = self._variants.setdefault(spec.name, [])
        if any(v.variant == spec.variant for v in variants):
            raise MachineError(f"duplicate op spec {spec.key!r}")
        if variants and (
            variants[0].n_srcs != spec.n_srcs or variants[0].has_dest != spec.has_dest
        ):
            raise MachineError(
                f"op {spec.name!r}: variants disagree on arity/destination"
            )
        variants.append(spec)
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._variants

    def __iter__(self):
        for variants in self._variants.values():
            yield from variants

    def names(self) -> list[str]:
        return list(self._variants)

    def variants(self, name: str) -> list[OpSpec]:
        """All variants of an operation, in declaration order."""
        try:
            return list(self._variants[name])
        except KeyError:
            raise MachineError(f"machine has no micro-operation {name!r}") from None

    def default(self, name: str) -> OpSpec:
        """The first-declared (canonical) variant of an operation."""
        return self.variants(name)[0]
