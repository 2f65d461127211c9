"""Exception hierarchy for the repro toolkit.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch toolkit failures with a single ``except`` clause
while still being able to distinguish the phase that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro toolkit."""


class MachineError(ReproError):
    """An inconsistency in a machine description (S1/S2)."""


class FrozenMachineError(MachineError):
    """A built machine description was mutated in place.

    Descriptions are frozen (and fingerprinted) once built; variants
    are made with :meth:`~repro.machine.machine.MicroArchitecture.derive`.
    """


class EncodingError(MachineError):
    """A micro-operation could not be encoded into the control word."""


class MIRError(ReproError):
    """Malformed micro-IR: bad operands, unknown ops, broken CFG edges."""


class CompositionError(ReproError):
    """Microinstruction composition failed (unresolvable conflicts)."""


class ConflictError(CompositionError):
    """Two micro-operations placed in one microinstruction conflict."""


class AllocationError(ReproError):
    """Register allocation failed (e.g. unsatisfiable class constraints)."""


class AssemblerError(ReproError):
    """Control-word assembly or loading failed."""


class SimulationError(ReproError):
    """The simulator reached an invalid state."""


class SimulationLimitError(SimulationError):
    """A simulation watchdog budget was exhausted.

    Raised instead of looping forever when a run exceeds its cycle
    budget, services more traps than ``max_traps`` allows (a
    non-converging fault loop), or overruns a wall-clock deadline.

    Attributes:
        kind: Which budget tripped: ``"cycles"``, ``"traps"`` or
            ``"deadline"``.
        limit: The configured budget value.
    """

    def __init__(self, message: str, *, kind: str, limit: float):
        super().__init__(message)
        self.kind = kind
        self.limit = limit


class FaultPlanError(ReproError):
    """A fault-injection spec or plan could not be parsed or applied."""


class CampaignWorkerError(ReproError):
    """A campaign shard's worker process died and retries ran out.

    Raised by the ``--jobs`` fan-out instead of hanging on the pool
    (the historical ``multiprocessing.Pool`` failure mode) when a
    shard's process is killed — segfault, OOM-kill, a ``kill:``
    chaos injector — and re-running the shard keeps dying.

    Attributes:
        shard_index: Which shard could not be completed.
        requeues: How many times the shard was re-run before
            giving up.
        exitcode: The dead process's exit code (negative = signal).
    """

    def __init__(self, message: str, *, shard_index: int,
                 requeues: int, exitcode: int | None = None):
        super().__init__(message)
        self.shard_index = shard_index
        self.requeues = requeues
        self.exitcode = exitcode


class MicroTrap(SimulationError):
    """A microtrap (e.g. pagefault) occurred during simulation.

    Microtraps are *control flow*, not failures: the simulator catches
    them, services the trap, and restarts the current microprogram.
    They derive from :class:`SimulationError` so that an unhandled trap
    surfaces as a simulation failure.
    """

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"microtrap {kind}: {detail}" if detail else f"microtrap {kind}")
        self.kind = kind
        self.detail = detail


class LanguageError(ReproError):
    """Base class for front-end errors, carrying a source location."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LexError(LanguageError):
    """The lexer met a character sequence it cannot tokenize."""


class ParseError(LanguageError):
    """The parser met an unexpected token."""


class SemanticError(LanguageError):
    """A semantic rule of the source language was violated."""


class VerificationError(ReproError):
    """A verification condition failed or could not be checked."""
