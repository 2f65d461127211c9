"""Read-only building blocks for frozen machine descriptions.

A built :class:`~repro.machine.machine.MicroArchitecture` is immutable
all the way down: :meth:`Sealable.freeze` turns every container it
holds into a read-only one (:class:`FrozenDict`, tuples, frozensets)
and freezes the :class:`Sealable` parts (register file, op table,
control-word format, datapath graph) it reaches.  Any later mutation
raises :class:`~repro.errors.FrozenMachineError`.
"""

from __future__ import annotations

from repro.errors import FrozenMachineError

_ADVICE = "machine descriptions are frozen once built; use derive(...)"


class FrozenDict(dict):
    """A dict whose mutators raise :class:`FrozenMachineError`."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise FrozenMachineError(_ADVICE)

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _frozen(value):
    """``value`` with its containers made read-only, recursively."""
    if isinstance(value, Sealable):
        value.freeze()
    elif isinstance(value, dict) and not isinstance(value, FrozenDict):
        return FrozenDict((k, _frozen(v)) for k, v in value.items())
    elif isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    elif isinstance(value, set):
        return frozenset(value)
    return value


class Sealable:
    """Mixin: :meth:`freeze` makes the object and its contents read-only.

    ``_CONTAINERS`` names the attributes to freeze; dataclasses freeze
    all their fields.  (Attributes are read by name, never through
    ``vars(self)``: materialising an instance ``__dict__`` would slow
    every later attribute read on these hot-path objects.)
    """

    _sealed = False
    _CONTAINERS: tuple[str, ...] = ()

    def freeze(self) -> None:
        """Freeze the contents, then refuse writes (idempotent)."""
        if self._sealed:
            return
        names = getattr(self, "__dataclass_fields__", self._CONTAINERS)
        for name in names:
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "_sealed", True)

    def __setattr__(self, name: str, value) -> None:
        if self._sealed:
            raise FrozenMachineError(f"cannot set {name!r}: {_ADVICE}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if self._sealed:
            raise FrozenMachineError(f"cannot delete {name!r}: {_ADVICE}")
        object.__delattr__(self, name)
