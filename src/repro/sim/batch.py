"""Batched lockstep execution: N cases per decoded dispatch (S23).

The scalar engines pay one Python dispatch per microinstruction *per
case*; a million-case campaign is a million interpreter loops.  This
module holds N independent cases as **struct-of-arrays** — every
register and flag becomes a lane vector — and drives them in lockstep,
so the Python-level dispatch cost is amortised across the batch.  The
lanes run the decoded engine's own plans:
:func:`~repro.sim.decode.decode_word` is the only lowering, and each
:class:`~repro.sim.decode.ExecutionPlan` it builds runs unchanged on a
:class:`BatchedState`.  Only three pieces of lowering are
lane-specific (the :class:`~repro.sim.decode.Lowering` passed to
``decode_word``): immediates become constant lane vectors, ops without
an :data:`~repro.sim.alu.ALU_SPEC` template run ``evaluate`` per lane,
and flag-tested branches and multiway dispatch follow the batch leader
through :meth:`BatchedState.settle`.  :class:`BatchedState` implements
the scalar state surface those plans call — memory, scratchpad,
``read_reg``/``write_reg``, the return stack — over lanes.

**Lockstep invariant.**  While lanes are live they share one
microprogram counter, one cycle count and one micro return stack —
legal because a lane that would diverge *leaves the batch* first.

**Divergence peel-off.**  Any lane that traps (pagefault), takes a
different branch direction than the batch leader (the lowest live
lane), selects a different multiway target, or raises a per-lane
datapath error is peeled: it is re-executed **from scratch** on the
scalar decoded :class:`~repro.sim.simulator.Simulator` and its result
merged back in case order.  Replay-from-scratch (rather than handing
over mid-run state) is deliberate: §2.1.5 trap service restores
microregisters to their *microprogram-entry* values, which a lane
peeled mid-run could not reconstruct — the scalar engine is the
reference semantics, so a peeled lane is byte-identical to a serial
run by construction.  Batch-wide events (budget exhaustion, a shared
stack overflow, an unsupported word) peel every live lane the same
way.

**Admission.**  Batching only engages for clean homogeneous work;
:func:`~repro.sim.admission.engine_refusal` is the one rule (a
missing numpy, a non-decoded engine and a banked register file refuse
too), and a refused batch runs every lane on the scalar engine —
byte-identical by construction.  The batched win lands on clean
sweeps (golden-style runs, difftest lanes, benchmark workloads).

``PLANT_LANE_XOR`` is the self-check hook: when non-zero, every
batched register commit XORs lane 0's value with it — a one-lane
batch-state corruption the difftest ``batched`` axis must catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.loader import ControlStore
from repro.errors import MicroTrap, SimulationError
from repro.sim import admission
from repro.sim.admission import engine_refusal
from repro.sim.decode import Lowering, decode_word
from repro.sim.memory import MainMemory, Scratchpad
from repro.sim.semantics import evaluate
from repro.sim.simulator import RunResult, Simulator
from repro.sim.state import MachineState


#: Self-check plant: when non-zero, every batched register commit
#: XORs lane 0's committed value with this (see module docstring).
PLANT_LANE_XOR = 0

#: Default lane count for batched sweeps (difftest axis, benchmarks).
DEFAULT_LANES = 64

#: numpy, bound by the first admitted lockstep batch: admission imports
#: it then, never at import time.
_np = None


def __getattr__(name: str):
    # ``HAVE_NUMPY`` asks admission, which imports numpy on first use.
    if name == "HAVE_NUMPY":
        return admission.have_numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _full(n: int, value: int):
    return _np.full(n, value, dtype=_np.int64)


def _vector(values):
    return _np.array(values, dtype=_np.int64)


def resolve_backend(backend: str = "auto") -> str:
    """The lane-vector backend ``"auto"`` selects: ``"numpy"``, or
    ``"scalar"`` when numpy is missing and every batch is refused
    (reason ``"no-numpy"``) onto the scalar engine."""
    if backend != "auto":
        raise SimulationError(
            f"unknown batch backend {backend!r} (expected 'auto')"
        )
    return "numpy" if admission.have_numpy() else "scalar"


# ----------------------------------------------------------------------
# Case and outcome containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchCase:
    """One lane's initial state: physical register pokes + memory image."""

    registers: dict[str, int] = field(default_factory=dict)
    memory: dict[int, int] = field(default_factory=dict)


class LaneOutcome:
    """One case's final state, whether it completed batched or peeled.

    Duck-types the observation surface the difftest oracle reads from
    a scalar run: ``read_reg`` (banked windows resolve against the
    snapshot's bank pointer), a ``scratchpad`` with ``read``, a
    ``memory`` with ``dump_words``, the final ``flags`` and the
    :class:`~repro.sim.simulator.RunResult`.  ``error`` carries the
    exception a peeled lane's scalar replay raised (budget overruns,
    unserviced traps); ``result`` is then ``None``.
    """

    __slots__ = ("machine", "result", "error", "registers", "flags",
                 "scratchpad", "memory", "peeled")

    def __init__(self, machine, *, result, error, registers, flags,
                 scratchpad, memory, peeled):
        self.machine = machine
        self.result: RunResult | None = result
        self.error: BaseException | None = error
        self.registers: dict[str, int] = registers
        self.flags: dict[str, int] = flags
        self.scratchpad = scratchpad
        self.memory = memory
        self.peeled: bool = peeled

    def read_reg(self, name: str) -> int:
        files = self.machine.registers
        if files.is_window(name):
            pointer = files.bank_pointer
            if pointer is None:
                raise SimulationError(f"window {name!r} but no bank pointer")
            name = files.resolve_window(name, self.registers[pointer])
        try:
            return self.registers[name]
        except KeyError:
            raise SimulationError(f"unknown register {name!r}") from None


class _DenseLaneView:
    """``dump_words`` over one lane's row of a dense memory array."""

    __slots__ = ("_row", "size")

    def __init__(self, row, size: int):
        self._row = row
        self.size = size

    def dump_words(self, base: int, count: int) -> list[int]:
        return [int(v) for v in self._row[base:base + count]]


# ----------------------------------------------------------------------
# Lane stores: the scalar memory and scratchpad surface over lanes
# ----------------------------------------------------------------------
class _Lanes:
    """Which lanes still follow the batch leader.

    Shared by :class:`BatchedState` and its lane stores.  The stores
    hold this, never the state: a back-reference would form a cycle
    that keeps the (lanes x 64k) memory array alive until the cyclic
    collector happens to run.
    """

    __slots__ = ("n", "live", "vec", "peeled")

    def __init__(self, n: int):
        self.n = n
        self.live = [True] * n
        self.vec = _full(n, 1)
        self.peeled: dict[int, str] = {}

    def live_lanes(self) -> list[int]:
        return [lane for lane in range(self.n) if self.live[lane]]

    def any_live(self) -> bool:
        return any(self.live)

    def peel(self, lane: int, reason: str) -> None:
        if self.live[lane]:
            self.live[lane] = False
            self.vec[lane] = 0
            self.peeled[lane] = reason

    def peel_all(self, reason: str) -> None:
        for lane in self.live_lanes():
            self.peel(lane, reason)


class _DenseMemory:
    """All lanes' main memory as one (lanes, size) numpy array.

    Used whenever paging is disabled — the regime where no memory
    touch can trap, so reads and writes are single fancy-indexing
    operations across the batch.
    """

    __slots__ = ("lanes", "words", "rows", "size")

    def __init__(self, lanes: _Lanes, size: int = 65536):
        self.lanes = lanes
        self.size = size
        self.words = _np.zeros((lanes.n, size), dtype=_np.int64)
        self.rows = _np.arange(lanes.n)

    def load(self, lane: int, base: int, values) -> None:
        for offset, value in enumerate(values):
            if not 0 <= base + offset < self.size:
                raise SimulationError("load_words out of range")
            self.words[lane, base + offset] = value

    def _clamp(self, addrs):
        """Peel lanes whose address is out of range (the scalar engine
        raises there) and point them at word 0."""
        bad = (addrs < 0) | (addrs >= self.size)
        if bad.any():
            for lane in self.lanes.live_lanes():
                if bad[lane]:
                    self.lanes.peel(lane, "memory-range")
            addrs = _np.where(bad, 0, addrs)
        return addrs

    def read(self, addrs):
        return self.words[self.rows, self._clamp(addrs)]

    def write(self, addrs, values) -> None:
        addrs = self._clamp(addrs)
        rows = self.rows
        # Peeled lanes must not commit: route their store to their own
        # address but with the value already there (a no-op write).
        current = self.words[rows, addrs]
        self.words[rows, addrs] = _np.where(self.lanes.vec == 1, values,
                                            current)

    def is_mapped(self, addrs) -> bool:
        # Paging is off: every in-range address is mapped.
        return True

    def lane_view(self, lane: int) -> _DenseLaneView:
        return _DenseLaneView(self.words[lane], self.size)


class _PerLane:
    """One scalar store per lane: paged main memories or scratchpads.

    Reads and writes loop over live lanes; a lane whose access raises
    (a :class:`MicroTrap` or an address error) peels, and the rest
    stay in lockstep.
    """

    __slots__ = ("lanes", "stores")

    def __init__(self, lanes: _Lanes, stores: list):
        self.lanes = lanes
        self.stores = stores

    def load(self, lane: int, base: int, values) -> None:
        self.stores[lane].load_words(base, list(values))

    def read(self, addrs):
        values = [0] * self.lanes.n
        for lane in self.lanes.live_lanes():
            try:
                values[lane] = self.stores[lane].read(int(addrs[lane]))
            except SimulationError:
                self.lanes.peel(lane, "access")
        return _vector(values)

    def write(self, addrs, values) -> None:
        for lane in self.lanes.live_lanes():
            try:
                self.stores[lane].write(int(addrs[lane]), int(values[lane]))
            except SimulationError:
                self.lanes.peel(lane, "access")

    def is_mapped(self, addrs) -> bool:
        """The write step's early fault check, passed for every lane: an
        unmapped lane faults at the commit write instead, and peels
        there — a peeled lane replays from scratch, so where in the
        microinstruction it left is unobservable."""
        return True

    def lane_view(self, lane: int):
        return self.stores[lane]


# ----------------------------------------------------------------------
# Batched state
# ----------------------------------------------------------------------
class _PeelAll(Exception):
    """Batch-wide divergence: every live lane goes to the scalar path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _PlantedRegisters(dict):
    """The register store while ``PLANT_LANE_XOR`` is set: every
    commit XORs lane 0's value with it (commits always store a fresh
    vector, so the in-place flip touches nothing else)."""

    def __setitem__(self, name, value):
        value[0] ^= PLANT_LANE_XOR
        super().__setitem__(name, value)


class BatchedState:
    """N cases as struct-of-arrays, advanced in lockstep.

    Implements the scalar state surface the decoded engine's steps and
    sequencing closures use, over lanes: ``registers``/``flags`` map
    names to lane vectors; ``memory`` and ``scratchpad`` read and
    write whole lane vectors, peeling each lane where the scalar
    engine would raise; ``read_reg``/``write_reg``/``push_return``/
    ``pop_return`` raise :class:`_PeelAll` where the scalar engine
    would resolve a window, raise, or overflow its stack.  The
    microsequencer (``upc``, ``cycles``, ``micro_stack``, ``halted``)
    is *shared* — the lockstep invariant — and ``lanes`` tracks which
    lanes still follow the batch leader.
    """

    #: Batches never admit an interrupt source, so decode's ``poll``
    #: step always finds the latch clear.
    interrupt_pending = False
    interrupt_handler = None

    def __init__(self, machine, n: int, *, paging: bool = False):
        self.machine = machine
        self.n = n
        self.lanes = _Lanes(n)
        registers = {
            register.name: _full(n, register.reset)
            for register in machine.registers
        }
        self.registers = (
            _PlantedRegisters(registers) if PLANT_LANE_XOR else registers
        )
        self.flags = {flag: _full(n, 0) for flag in machine.flags}
        self.memory = _PerLane(self.lanes, [
            MainMemory(paging_enabled=True) for _ in range(n)
        ]) if paging else _DenseMemory(self.lanes)
        self.scratchpad = _PerLane(self.lanes, [
            Scratchpad(machine.scratchpad_size) for _ in range(n)
        ])
        self.upc = 0
        self.cycles = 0
        self.micro_stack: list[int] = []
        self.halted = False
        self.exit_value = None

    # -- lockstep sequencing ---------------------------------------------
    def settle(self, targets, reason: str) -> None:
        """Follow the batch leader; peel lanes that disagree.

        ``targets`` is a per-lane vector of next control-store
        addresses; the leader is the lowest live lane.
        """
        lanes = self.lanes
        live = lanes.live_lanes()
        leader = int(targets[live[0]])
        stray = (1 - (targets == leader) * 1) * lanes.vec
        if stray.any():
            for lane in live[1:]:
                if stray[lane]:
                    lanes.peel(lane, reason)
        self.upc = leader

    # -- the scalar register and stack surface ----------------------------
    def read_reg(self, name: str):
        """A plain register's lane vector.  A banked window or unknown
        name replays every lane on the scalar engine, which resolves
        or raises exactly."""
        if self.machine.registers.is_window(name) \
                or name not in self.registers:
            raise _PeelAll(f"dynamic register {name!r}")
        return self.registers[name]

    def write_reg(self, name: str, value) -> None:
        """Plain writable registers commit as direct slot stores; the
        windows, read-only and unknown names that reach here replay
        every lane on the scalar engine."""
        raise _PeelAll(f"dynamic destination {name!r}")

    def push_return(self, address: int) -> None:
        if len(self.micro_stack) >= self.machine.micro_stack_depth:
            # Shared stack: every lane overflows identically.
            raise _PeelAll("stack-overflow")
        self.micro_stack.append(address)

    def pop_return(self) -> int:
        if not self.micro_stack:
            raise _PeelAll("stack-underflow")
        return self.micro_stack.pop()

    # -- loader ------------------------------------------------------------
    def poke_constant(self, name: str, value: int) -> None:
        register = self.machine.registers[name]
        self.registers[name][:] = value & register.mask

    def init_register(self, lane: int, name: str, value: int) -> None:
        """Loader-level per-lane poke with ``write_reg`` checking."""
        files = self.machine.registers
        if name not in files.registers:
            raise SimulationError(f"unknown register {name!r}")
        register = files.registers[name]
        if register.readonly:
            raise SimulationError(f"write to read-only register {name!r}")
        self.registers[name][lane] = value & register.mask


# ----------------------------------------------------------------------
# The lane lowering: what differs from the scalar plans
# ----------------------------------------------------------------------
def _lane_step_generic(name, readers, dest, commit, read_old, width):
    """Per-lane :func:`evaluate` fallback for ops without a spec template.

    The loop costs one scalar evaluation per live lane — same as the
    scalar engine — but these ops are rare in generated and compiled
    code; the spec's ALU orders stay fully vectorised.  A per-lane
    :class:`SimulationError` (e.g. a negative shift count) peels that
    lane; the scalar replay raises identically.
    """

    def step(b, reg_writes, flag_writes, memory_ops):
        src_vecs = [read(b) for read in readers]
        old_vec = read_old(b) if read_old is not None else None
        carry_vec = b.flags.get("C")
        values = [0] * b.n
        flag_cols: dict[str, list[int]] = {}
        wrote_value = False
        for lane in b.lanes.live_lanes():
            try:
                result = evaluate(
                    name,
                    [int(vec[lane]) for vec in src_vecs],
                    width,
                    dest_old=(
                        int(old_vec[lane]) if old_vec is not None else 0
                    ),
                    carry_in=(
                        int(carry_vec[lane]) if carry_vec is not None else 0
                    ),
                )
            except SimulationError:
                b.lanes.peel(lane, "op")
                continue
            if result.value is not None:
                values[lane] = result.value
                wrote_value = True
            for flag, value in result.flags.items():
                flag_cols.setdefault(flag, [0] * b.n)[lane] = value
        if wrote_value and dest:
            reg_writes.append((commit[0], commit[1], _vector(values)))
        for flag, column in flag_cols.items():
            flag_writes[flag] = _vector(column)

    return step


def _lane_seq_branch(flag, expected, taken, not_taken):
    def seq_branch(b):
        flag_vec = b.flags.get(flag)
        if flag_vec is None:
            b.upc = taken if expected == 0 else not_taken
            return
        t = (flag_vec == expected) * 1
        b.settle(t * taken + (1 - t) * not_taken, "branch")

    return seq_branch


def _lane_seq_multiway(read_value, cases, default):
    # Last to first, so the first matching arm wins.
    cases = cases[::-1]

    def seq_multiway(b):
        values = read_value(b)
        targets = _full(b.n, default)
        for care, want, target in cases:
            targets = _np.where(values & care == want, target, targets)
        b.settle(targets, "multiway")

    return seq_multiway


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _run_lockstep(
    machine, loaded, cases, *, paging, max_cycles,
) -> list[LaneOutcome | None]:
    """Drive one homogeneous chunk in lockstep.

    Returns one entry per case: a :class:`LaneOutcome` for lanes that
    ran to EXIT inside the batch, None for lanes that peeled (the
    caller replays those scalar).
    """
    global _np
    _np = admission.numpy
    store = ControlStore(machine)
    resident = store.load(loaded)
    n = len(cases)
    b = BatchedState(machine, n, paging=paging)
    lanes = b.lanes
    for lane, case in enumerate(cases):
        # A lane whose initial pokes are invalid (unknown register,
        # windowed name, out-of-range load) peels to the scalar path,
        # which raises the identical error for that case alone —
        # live-traffic batches must never let one bad lane take down
        # its neighbours.
        try:
            for name, value in case.registers.items():
                b.init_register(lane, name, value)
            for address, value in case.memory.items():
                b.memory.load(lane, address, [value])
        except (MicroTrap, SimulationError):
            lanes.peel(lane, "init")
    for name, value in resident.program.constants.items():
        b.poke_constant(name, value)
    b.upc = resident.entry

    # The decoded engine's own plans, lowered for lane vectors.
    lowering = Lowering(
        lambda value: _full(n, value), _lane_step_generic,
        _lane_seq_branch, _lane_seq_multiway,
    )
    plans = {}
    decodes = 0
    instructions = 0
    try:
        while not b.halted and lanes.any_live():
            if b.cycles > max_cycles:
                # Scalar runs raise SimulationLimitError at exactly
                # this microinstruction boundary; the replay does too.
                lanes.peel_all("budget")
                break
            plan = plans.get(b.upc)
            if plan is None:
                plan = decode_word(
                    b, store.fetch(b.upc), resident, b.upc, lowering
                )
                plans[b.upc] = plan
                decodes += 1
            plan.execute(b)
            if not lanes.any_live():
                break
            b.cycles += plan.cycles
            instructions += 1
            plan.sequence(b)
    except _PeelAll as stop:
        lanes.peel_all(stop.reason)
    except Exception:
        # Anything unforeseen (a fetch outside the resident, an op the
        # scalar engine would reject): the scalar path is the
        # reference — replay every lane rather than guess.
        lanes.peel_all("error")

    outcomes: list[LaneOutcome | None] = [None] * n
    if not lanes.any_live():
        return outcomes
    # Per-run plan-cache counters, synthesised to match what a fresh
    # scalar simulator reports: misses are the distinct addresses
    # decoded, hits are the remaining executed microinstructions.
    plan_counters = {
        "hits": max(0, instructions - decodes),
        "misses": decodes,
        "invalidations": 0,
    }
    for lane in lanes.live_lanes():
        exit_value = (
            int(b.exit_value[lane]) if b.exit_value is not None else None
        )
        outcomes[lane] = LaneOutcome(
            machine,
            result=RunResult(
                cycles=b.cycles,
                instructions=instructions,
                traps=0,
                interrupts_serviced=0,
                interrupt_wait_cycles=0,
                exit_value=exit_value,
                plan_cache=dict(plan_counters),
            ),
            error=None,
            registers={
                name: int(vec[lane]) for name, vec in b.registers.items()
            },
            flags={name: int(vec[lane]) for name, vec in b.flags.items()},
            scratchpad=b.scratchpad.stores[lane],
            memory=b.memory.lane_view(lane),
            peeled=False,
        )
    return outcomes


def _run_scalar(
    machine, loaded, case, *, engine, paging, trap_service,
    interrupt_handler, max_cycles, peeled,
) -> LaneOutcome:
    """One case on the scalar engine — the peel-off (and batch=1) path."""
    store = ControlStore(machine)
    store.load(loaded)
    memory = MainMemory(paging_enabled=paging)
    state = MachineState(machine, memory=memory)
    simulator = Simulator(
        machine, store, state=state, engine=engine,
        trap_service=trap_service, interrupt_handler=interrupt_handler,
    )
    result = None
    error = None
    try:
        for name, value in case.registers.items():
            state.write_reg(name, value)
        for address, value in case.memory.items():
            memory.load_words(address, [value])
        result = simulator.run(loaded.name, max_cycles=max_cycles)
    except Exception as exc:
        # Invalid pokes are captured per lane too, so a batch caller
        # (e.g. a serve worker) observes them in ``LaneOutcome.error``
        # exactly like any other per-case failure.
        error = exc
    return LaneOutcome(
        machine,
        result=result,
        error=error,
        registers=dict(state.registers),
        flags=dict(state.flags),
        scratchpad=state.scratchpad,
        memory=memory,
        peeled=peeled,
    )


def run_cases(
    machine,
    loaded,
    cases,
    *,
    batch: int = 1,
    engine: str = "decoded",
    paging: bool = False,
    trap_service=None,
    interrupt_handler=None,
    max_cycles: int = 1_000_000,
) -> list[LaneOutcome]:
    """Run homogeneous cases through the lockstep driver, batch-wise.

    Cases are chunked into batches of ``batch`` lanes; lanes that peel
    (or a refused admission — see
    :func:`~repro.sim.admission.engine_refusal`) replay on the scalar
    engine, and results merge back **in case order**.  ``batch=1`` is
    exactly the scalar behaviour.  Exceptions a
    lane's run raises are captured per lane in
    :attr:`LaneOutcome.error`, never propagated, so a batch with one
    runaway lane still reports the other N-1.
    """
    reason = engine_refusal(engine, machine, lanes=batch)
    outcomes: list[LaneOutcome | None] = [None] * len(cases)
    if reason is None:
        for start in range(0, len(cases), batch):
            chunk = list(cases[start:start + batch])
            for offset, lane in enumerate(_run_lockstep(
                machine, loaded, chunk, paging=paging,
                max_cycles=max_cycles,
            )):
                outcomes[start + offset] = lane
    for index, case in enumerate(cases):
        if outcomes[index] is None:
            outcomes[index] = _run_scalar(
                machine, loaded, case, engine=engine, paging=paging,
                trap_service=trap_service,
                interrupt_handler=interrupt_handler,
                max_cycles=max_cycles, peeled=reason is None,
            )
    return outcomes
