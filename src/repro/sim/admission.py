"""One admission rule for the simulator's fast paths.

Two fast paths skip ahead of the per-microinstruction loop: the trace
JIT (:mod:`repro.sim.trace`) runs whole loop iterations per dispatch,
and lockstep batching (:mod:`repro.sim.batch`) runs N cases per
dispatch.  Whether either may engage is decided here and nowhere else
— ``Simulator.run``, ``run_cases`` and serve's ``batch_refused`` all
ask :func:`engine_refusal`.
"""

from __future__ import annotations

#: Lane vectors are numpy arrays; without numpy every batch is refused
#: (``"no-numpy"``) and the scalar engine runs each case.  None until
#: :func:`have_numpy` first asks.
HAVE_NUMPY: bool | None = None
#: The numpy module once :func:`have_numpy` has imported it.
numpy = None


def have_numpy() -> bool:
    """Whether lane vectors are available, importing numpy on the first
    lockstep admission rather than at import (``import repro.cli``
    never loads it)."""
    global HAVE_NUMPY, numpy
    if HAVE_NUMPY is None:
        try:
            import numpy
        except ImportError:
            HAVE_NUMPY = False
        else:
            HAVE_NUMPY = True
    return HAVE_NUMPY


def engine_refusal(
    engine: str,
    machine=None,
    *,
    lanes: int | None = None,
    injector=None,
    recorder=None,
    trace=None,
    interrupt_every: int | None = None,
    deadline_s: float | None = None,
) -> str | None:
    """Why a run's fast path must stand down — None when it may engage.

    A scalar run (``lanes=None``) asks whether ``engine="traced"``'s
    trace JIT may engage; ``lanes=N`` asks whether N cases may run in
    lockstep over the decoded engine.  Both skip ahead of per-MI hooks,
    so an injector (it substitutes words at fetch), a trace sink (it
    wants every executed line) or ``interrupt_every`` (it must see
    every cycle crossing) refuses either; hooks count as attached when
    not None.  Lockstep also refuses a profile recorder and a
    wall-clock deadline (no per-lane accounting), any engine but
    decoded, a missing numpy and a banked register file (per-lane bank
    pointers are not modelled).  ``machine=None`` skips those last two
    checks: serve decides on its event loop before a machine is built,
    and the worker's ``run_cases`` checks them again.

    The reason strings are stable: serve exports them as
    ``batch_refused{reason}`` on ``/metrics``.
    """
    lockstep = lanes is not None
    if lockstep and lanes <= 1:
        return "batch=1"
    if not lockstep and engine != "traced":
        return f"engine={engine}"
    if injector is not None:
        return "injector"
    if lockstep and recorder is not None:
        return "recorder"
    if trace is not None:
        return "trace"
    if interrupt_every:
        return "interrupt_every"
    if not lockstep:
        return None
    if deadline_s is not None:
        return "deadline"
    if engine != "decoded":
        return f"engine={engine}"
    if machine is None:
        return None
    if not have_numpy():
        return "no-numpy"
    files = machine.registers
    if files.windows or files.bank_pointer:
        return "banked-windows"
    return None
