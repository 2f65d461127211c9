"""Datapath connectivity — CHAMIL's abstraction (survey §2.2.5).

"The programmer is allowed to abstract from physical datapaths: the
statement ``reg_a := reg_b`` is legal as long as there exists a
(possibly indirect) path from reg_a to reg_b that can be traversed
within one microcycle."

A :class:`DatapathGraph` records which register-to-register transfers
the buses support directly.  ``route`` finds the shortest indirect
path; the legalization pass expands a move along it, hop by hop, and
on chaining machines the composers can then pack the whole route back
into a single microinstruction — which is exactly CHAMIL's "within one
microcycle" condition becoming checkable.

Machines without a datapath graph (``machine.datapath is None``) have
fully connected register files, the default everywhere else in the
toolkit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.frozen import Sealable


@dataclass
class DatapathGraph(Sealable):
    """Directed register-to-register connectivity.

    Attributes:
        direct: Adjacency sets: ``direct[a]`` holds every register a
            single move can reach from ``a``.
        routing_registers: Registers (typically bus latches) that a
            router may clobber freely when building indirect paths.
            They must never be allocatable or hold program values.
    """

    direct: dict[str, set[str]] = field(default_factory=dict)
    routing_registers: frozenset[str] = frozenset()

    def connect(self, source: str, *destinations: str) -> "DatapathGraph":
        self.direct.setdefault(source, set()).update(destinations)
        return self

    def connect_bidirectional(self, a: str, b: str) -> "DatapathGraph":
        self.connect(a, b)
        self.connect(b, a)
        return self

    def is_direct(self, source: str, destination: str) -> bool:
        return destination in self.direct.get(source, set())

    def route(
        self, source: str, destination: str, max_hops: int = 4
    ) -> list[tuple[str, str]] | None:
        """Shortest move sequence realizing source -> destination.

        Intermediate nodes are restricted to the routing registers (a
        path through an architectural register would clobber program
        state).  Returns ``[(src, hop1), (hop1, hop2), …]`` or None if
        no path of at most ``max_hops`` moves exists.
        """
        if self.is_direct(source, destination):
            return [(source, destination)]
        queue: deque[tuple[str, list[str]]] = deque([(source, [source])])
        seen = {source}
        while queue:
            node, path = queue.popleft()
            if len(path) > max_hops:
                continue
            for neighbour in sorted(self.direct.get(node, set())):
                if neighbour == destination:
                    full = path + [destination]
                    return list(zip(full, full[1:]))
                if neighbour in seen or neighbour not in self.routing_registers:
                    continue
                seen.add(neighbour)
                queue.append((neighbour, path + [neighbour]))
        return None

    def validate(self, register_names: set[str]) -> None:
        """All nodes must be registers of the machine."""
        nodes = set(self.direct)
        for destinations in self.direct.values():
            nodes |= destinations
        nodes |= self.routing_registers
        unknown = nodes - register_names
        if unknown:
            raise MachineError(
                f"datapath references unknown registers: {sorted(unknown)}"
            )


def fully_connected() -> None:
    """The default: no datapath graph means every move is direct."""
    return None
