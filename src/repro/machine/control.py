"""Control-word format: fields, micro-order encodings, packing.

A horizontal microinstruction is the simultaneous setting of many
control-word *fields*, each of which steers one hardware resource (a
bus selector, an ALU function code, a memory strobe, the sequencing
logic).  Two micro-operations conflict when they need the same field at
different values — this is DeWitt's control-word conflict model [7],
which the whole composition subsystem (``repro.compose``) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.errors import EncodingError, MachineError
from repro.machine.frozen import FrozenDict, Sealable


@dataclass(frozen=True)
class Field:
    """One field of the control word.

    Attributes:
        name: Unique field name, e.g. ``"alu_op"`` or ``"abus"``.
        width: Field width in bits.
        encodings: Mapping of micro-order / register names to codes.
            Ignored for immediate fields.
        is_immediate: If true, the field carries a raw integer (a
            constant or a control-store address) rather than an
            encoded micro-order.
        nop_code: The code emitted when no operation uses the field.
    """

    name: str
    width: int
    encodings: dict[str, int] = dataclass_field(default_factory=dict)
    is_immediate: bool = False
    nop_code: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "encodings", FrozenDict(self.encodings))
        if self.width <= 0:
            raise MachineError(f"field {self.name!r} must have positive width")
        limit = 1 << self.width
        for key, code in self.encodings.items():
            if not 0 <= code < limit:
                raise MachineError(
                    f"field {self.name!r}: encoding {key!r}={code} "
                    f"does not fit in {self.width} bits"
                )
        if not 0 <= self.nop_code < limit:
            raise MachineError(f"field {self.name!r}: nop code out of range")

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def encode(self, value: str | int) -> int:
        """Encode a micro-order name (or raw int for immediates)."""
        if self.is_immediate:
            if not isinstance(value, int):
                raise EncodingError(
                    f"field {self.name!r} is immediate; got {value!r}"
                )
            return value & self.mask
        if isinstance(value, int):
            # Raw codes are accepted for round-tripping decoded words.
            if not 0 <= value <= self.mask:
                raise EncodingError(
                    f"field {self.name!r}: raw code {value} out of range"
                )
            return value
        try:
            return self.encodings[value]
        except KeyError:
            raise EncodingError(
                f"field {self.name!r} has no encoding for {value!r}"
            ) from None

    def decode(self, code: int) -> str | int:
        """Best-effort inverse of :meth:`encode` (for listings)."""
        if self.is_immediate:
            return code
        for key, value in self.encodings.items():
            if value == code:
                return key
        return code


class ControlWordFormat(Sealable):
    """The ordered collection of fields making up one control word."""

    _CONTAINERS = ("_fields", "_offsets")

    def __init__(self, fields: list[Field]):
        self._fields: dict[str, Field] = {}
        self._offsets: dict[str, int] = {}
        offset = 0
        for fld in fields:
            if fld.name in self._fields:
                raise MachineError(f"duplicate control field {fld.name!r}")
            self._fields[fld.name] = fld
            self._offsets[fld.name] = offset
            offset += fld.width
        self.width = offset

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __getitem__(self, name: str) -> Field:
        try:
            return self._fields[name]
        except KeyError:
            raise MachineError(f"unknown control field {name!r}") from None

    def __iter__(self):
        return iter(self._fields.values())

    def __len__(self) -> int:
        return len(self._fields)

    def names(self) -> list[str]:
        return list(self._fields)

    def offset(self, name: str) -> int:
        """Bit offset of a field within the packed control word."""
        return self._offsets[self[name].name]

    def pack(self, settings: dict[str, str | int]) -> int:
        """Pack field settings into a single control-word integer.

        Unset fields get their nop code.  Unknown field names raise.
        """
        word = 0
        for name, fld in self._fields.items():
            if name in settings:
                code = fld.encode(settings[name])
            else:
                code = fld.nop_code
            word |= code << self._offsets[name]
        for name in settings:
            if name not in self._fields:
                raise EncodingError(f"unknown control field {name!r}")
        return word

    def unpack(self, word: int) -> dict[str, int]:
        """Split a packed control word back into raw field codes."""
        if word < 0 or word >= (1 << self.width):
            raise EncodingError(f"control word {word:#x} out of range")
        return {
            name: (word >> self._offsets[name]) & fld.mask
            for name, fld in self._fields.items()
        }

    def describe(self) -> str:
        """Human-readable field layout (for documentation/listings)."""
        lines = [f"control word: {self.width} bits, {len(self)} fields"]
        for name, fld in self._fields.items():
            kind = "imm" if fld.is_immediate else f"{len(fld.encodings)} orders"
            lines.append(
                f"  [{self._offsets[name]:3d}+{fld.width:2d}] {name:<12} {kind}"
            )
        return "\n".join(lines)
