"""Batched lockstep execution: N cases per decoded dispatch (S23).

The scalar engines pay one Python dispatch per microinstruction *per
case*; a million-case campaign is a million interpreter loops.  This
module holds N independent cases as **struct-of-arrays** — every
register and flag becomes a lane vector — and drives them in lockstep
through batched execution plans: one step closure per placed op per
microinstruction, each operating on whole numpy lane vectors, so the
Python-level dispatch cost is amortised across the batch.  This is the
structural move that makes VADL-style generated simulators fast,
applied to the pre-decoded engine of :mod:`repro.sim.decode`: the ALU
steps *are* the decoded engine's (rendered from :mod:`repro.sim.alu`),
run on vectors; only memory, scratchpad, sequencing and the per-lane
``evaluate`` fallback are lane-specific here.

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
from typing import Callable

from repro.asm.loader import ControlStore
from repro.errors import MicroTrap, SimulationError
from repro.mir.block import (
    Branch,
    Call,
    Exit,
    Fallthrough,
    Jump,
    Multiway,
    Ret,
    mask_bits,
)
from repro.mir.operands import Reg
from repro.sim.admission import HAVE_NUMPY, engine_refusal
from repro.sim.admission import numpy as _np
from repro.sim.alu import step_factory
from repro.sim.decode import _COND_TESTS, inlines_alu
from repro.sim.memory import MainMemory, Scratchpad
from repro.sim.semantics import evaluate
from repro.sim.simulator import RunResult, Simulator
from repro.sim.state import MachineState


#: Self-check plant: when non-zero, every batched register commit
#: XORs lane 0's committed value with this (see module docstring).
PLANT_LANE_XOR = 0

#: Default lane count for batched sweeps (difftest axis, benchmarks).
DEFAULT_LANES = 64


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
    return "numpy" if HAVE_NUMPY else "scalar"


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
# Batched memory
# ----------------------------------------------------------------------
class _DenseMemory:
    """All lanes' main memory as one (lanes, size) numpy array.

    Used whenever paging is disabled — the regime
    where no memory touch can trap, so reads and writes are single
    fancy-indexing operations across the batch.
    """

    __slots__ = ("words", "rows", "size")

    def __init__(self, lanes: int, size: int = 65536):
        self.size = size
        self.words = _np.zeros((lanes, size), dtype=_np.int64)
        self.rows = _np.arange(lanes)

    def load(self, lane: int, base: int, values) -> None:
        for offset, value in enumerate(values):
            if not 0 <= base + offset < self.size:
                raise SimulationError("load_words out of range")
            self.words[lane, base + offset] = value

    def _clamp(self, state: BatchedState, addrs):
        bad = (addrs < 0) | (addrs >= self.size)
        if bad.any():
            for lane in state.live_lanes():
                if bad[lane]:
                    state.peel(lane, "memory-range")
            addrs = _np.where(bad, 0, addrs)
        return addrs

    def read_vec(self, state: BatchedState, addrs):
        return self.words[self.rows, self._clamp(state, addrs)]

    def write_vec(self, state: BatchedState, addrs, values) -> None:
        addrs = self._clamp(state, addrs)
        live = state.live_vec
        rows = self.rows
        # Peeled lanes must not commit: route their store to their own
        # address but with the value already there (a no-op write).
        current = self.words[rows, addrs]
        self.words[rows, addrs] = _np.where(live == 1, values, current)

    def lane_view(self, lane: int) -> _DenseLaneView:
        return _DenseLaneView(self.words[lane], self.size)


class _LaneMemories:
    """Per-lane :class:`MainMemory` objects (paging enabled).

    Reads and writes loop over live lanes; a :class:`MicroTrap` or
    address error in one lane peels that lane and leaves the rest in
    lockstep.
    """

    __slots__ = ("memories",)

    def __init__(self, lanes: int, *, paging: bool):
        self.memories = [
            MainMemory(paging_enabled=paging) for _ in range(lanes)
        ]

    def load(self, lane: int, base: int, values) -> None:
        self.memories[lane].load_words(base, list(values))

    def read_vec(self, state: BatchedState, addrs):
        values = [0] * state.n
        for lane in state.live_lanes():
            try:
                values[lane] = self.memories[lane].read(int(addrs[lane]))
            except (MicroTrap, SimulationError):
                state.peel(lane, "trap")
        return _vector(values)

    def write_vec(self, state: BatchedState, addrs, values) -> None:
        for lane in state.live_lanes():
            try:
                self.memories[lane].write(
                    int(addrs[lane]), int(values[lane])
                )
            except (MicroTrap, SimulationError):
                state.peel(lane, "trap")

    def touch(self, state: BatchedState, addrs, values) -> None:
        """The decoded engine's write-allocate check, per lane."""
        for lane in state.live_lanes():
            address = int(addrs[lane])
            memory = self.memories[lane]
            if not memory.is_mapped(address):
                try:
                    memory.write(address, int(values[lane]))
                except (MicroTrap, SimulationError):
                    state.peel(lane, "trap")

    def lane_view(self, lane: int) -> MainMemory:
        return self.memories[lane]


# ----------------------------------------------------------------------
# Batched state
# ----------------------------------------------------------------------
class _PeelAll(Exception):
    """Batch-wide divergence: every live lane goes to the scalar path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class BatchedState:
    """N cases as struct-of-arrays, advanced in lockstep.

    ``registers``/``flags`` map names to lane vectors; main memory and
    the scratchpads are per-lane.  The microsequencer (``upc``,
    ``cycles``, ``micro_stack``, ``halted``) is *shared* — the
    lockstep invariant — and ``live``/``live_vec``/``peeled`` track
    which lanes are still following the batch leader.
    """

    def __init__(self, machine, n: int, *, paging: bool = False):
        self.machine = machine
        self.n = n
        self.registers = {
            register.name: _full(n, register.reset)
            for register in machine.registers
        }
        self.flags = {flag: _full(n, 0) for flag in machine.flags}
        self.live = [True] * n
        self.live_vec = _full(n, 1)
        self.peeled: dict[int, str] = {}
        if not paging:
            self.memory = _DenseMemory(n)
        else:
            self.memory = _LaneMemories(n, paging=paging)
        self.scratchpads = [
            Scratchpad(machine.scratchpad_size) for _ in range(n)
        ]
        self.upc = 0
        self.cycles = 0
        self.micro_stack: list[int] = []
        self.halted = False
        self.exit_value = None

    # -- lane management -------------------------------------------------
    def live_lanes(self) -> list[int]:
        return [lane for lane in range(self.n) if self.live[lane]]

    def any_live(self) -> bool:
        return any(self.live)

    def peel(self, lane: int, reason: str) -> None:
        if self.live[lane]:
            self.live[lane] = False
            self.live_vec[lane] = 0
            self.peeled[lane] = reason

    def peel_all(self, reason: str) -> None:
        for lane in self.live_lanes():
            self.peel(lane, reason)

    # -- lockstep sequencing ---------------------------------------------
    def settle(self, targets, reason: str) -> None:
        """Follow the batch leader; peel lanes that disagree.

        ``targets`` is a per-lane vector of next control-store
        addresses; the leader is the lowest live lane.
        """
        lanes = self.live_lanes()
        leader = int(targets[lanes[0]])
        stray = (1 - (targets == leader) * 1) * self.live_vec
        if stray.any():
            for lane in lanes[1:]:
                if stray[lane]:
                    self.peel(lane, reason)
        self.upc = leader

    def poke_constant(self, name: str, value: int) -> None:
        register = self.machine.registers[name]
        self.registers[name] = _full(self.n, value & register.mask)

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
# Batched operand pre-resolution
# ----------------------------------------------------------------------
def _b_src_reader(state: BatchedState, operand):
    """A vector reader for one source operand.

    Immediates become cached constant vectors (treated as immutable —
    every consumer derives fresh vectors through operators); registers
    become direct slot lookups.  Windows and unknown names refuse
    batching (the scalar replay reproduces their dynamic behaviour,
    including the raises).
    """
    if not isinstance(operand, Reg):
        constant = _full(state.n, operand.value)
        return lambda b: constant
    name = operand.name
    files = state.machine.registers
    if files.is_window(name) or name not in files.registers:
        raise _PeelAll(f"dynamic register {name!r}")
    return lambda b: b.registers[name]


def _b_dest_slot(state: BatchedState, name: str) -> tuple[str, int]:
    """``(target, mask)`` for a plain writable destination register.

    Anything the scalar engine routes through ``write_reg`` at commit
    time (windows, read-only, unknown names) refuses batching.
    """
    files = state.machine.registers
    if files.is_window(name) or name not in files.registers:
        raise _PeelAll(f"dynamic destination {name!r}")
    register = files.registers[name]
    if register.readonly:
        raise _PeelAll(f"read-only destination {name!r}")
    return (name, register.mask)


# ----------------------------------------------------------------------
# Batched step factories (exact vector mirrors of repro.sim.decode)
# ----------------------------------------------------------------------
def _b_step_read(read_addr, target, mask):
    def step(b, reg_writes, flag_writes, memory_ops):
        reg_writes.append(
            (target, mask, b.memory.read_vec(b, read_addr(b)))
        )

    return step


def _b_step_write(read_addr, read_data):
    def step(b, reg_writes, flag_writes, memory_ops):
        addrs = read_addr(b)
        data = read_data(b)
        memory_ops.append(
            lambda a=addrs, d=data: b.memory.write_vec(b, a, d)
        )
        # Touch now so pagefaults surface at the op, not at commit —
        # only meaningful in per-lane mode (dense mode never pages).
        touch = getattr(b.memory, "touch", None)
        if touch is not None:
            touch(b, addrs, data)

    return step


def _b_step_ldscr(read_addr, target, mask):
    def step(b, reg_writes, flag_writes, memory_ops):
        addrs = read_addr(b)
        values = [0] * b.n
        for lane in b.live_lanes():
            try:
                values[lane] = b.scratchpads[lane].read(int(addrs[lane]))
            except SimulationError:
                b.peel(lane, "scratchpad")
        reg_writes.append((target, mask, _vector(values)))

    return step


def _b_step_stscr(read_value, read_addr):
    def step(b, reg_writes, flag_writes, memory_ops):
        values = read_value(b)
        addrs = read_addr(b)

        def commit(a=addrs, v=values):
            for lane in b.live_lanes():
                try:
                    b.scratchpads[lane].write(int(a[lane]), int(v[lane]))
                except SimulationError:
                    b.peel(lane, "scratchpad")

        memory_ops.append(commit)

    return step


def _b_step_generic(name, readers, has_dest, commit, read_old, width):
    """Per-lane :func:`evaluate` fallback for un-inlined ops.

    The loop costs one scalar evaluation per live lane — same as the
    scalar engine — but these ops are rare in generated and compiled
    code; the hot ALU orders above stay fully vectorised.  A per-lane
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
        for lane in b.live_lanes():
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
                b.peel(lane, "op")
                continue
            if result.value is not None:
                values[lane] = result.value
                wrote_value = True
            for flag, value in result.flags.items():
                flag_cols.setdefault(flag, [0] * b.n)[lane] = value
        if wrote_value and has_dest:
            reg_writes.append((commit[0], commit[1], _vector(values)))
        for flag, column in flag_cols.items():
            flag_writes[flag] = _vector(column)

    return step


def _b_decode_op(state: BatchedState, placed):
    """Lower one placed op to a batched step (None for no-ops).

    ``poll`` lowers to nothing: batches never admit an interrupt
    source, so the pending latch can never be set (the scalar step is
    an identical no-op then).  ``setblk`` implies a banked register
    file, which refuses admission before decode is ever reached.
    """
    machine = state.machine
    op = placed.op
    name = op.op
    if name in ("nop", "poll"):
        return None
    if name == "setblk":
        raise _PeelAll("setblk")

    readers = tuple(_b_src_reader(state, src) for src in op.srcs)
    if name == "read":
        target, mask = _b_dest_slot(state, op.dest.name)
        return _b_step_read(readers[0], target, mask)
    if name == "write":
        return _b_step_write(readers[0], readers[1])
    if name == "ldscr":
        target, mask = _b_dest_slot(state, op.dest.name)
        return _b_step_ldscr(readers[0], target, mask)
    if name == "stscr":
        return _b_step_stscr(readers[0], readers[1])

    if inlines_alu(machine.registers, op):
        # The decoded engine's own spec-rendered step, run on vectors.
        target, mask = (
            _b_dest_slot(state, op.dest.name) if op.dest is not None
            else ("", None)
        )
        return step_factory(name)(
            readers[0], readers[-1], target, mask, machine.mask(),
            machine.word_size - 1,
        )

    if op.dest is not None:
        commit = _b_dest_slot(state, op.dest.name)
        read_old = _b_src_reader(state, op.dest)
    else:
        commit = ("", None)
        read_old = None
    return _b_step_generic(
        name, readers, op.dest is not None, commit, read_old,
        machine.word_size,
    )


# ----------------------------------------------------------------------
# Batched terminator pre-decoding
# ----------------------------------------------------------------------
def _b_decode_terminator(state, terminator, address, resident):
    base = resident.base
    labels = resident.program.labels

    def resolve(label: str) -> int:
        return base + labels[label]

    if terminator is None or isinstance(terminator, (Fallthrough, Jump)):
        target = (
            address + 1 if terminator is None
            else resolve(terminator.target)
        )

        def seq_jump(b):
            b.upc = target

        return seq_jump

    if isinstance(terminator, Branch):
        taken = resolve(terminator.target)
        not_taken = resolve(terminator.otherwise)
        cond = terminator.cond
        if cond == "TRUE":
            def seq_always(b):
                b.upc = taken

            return seq_always
        test = _COND_TESTS.get(cond)
        if test is None:
            # condition_holds would raise identically for every lane.
            raise _PeelAll(f"condition {cond!r}")
        flag, expected = test

        def seq_branch(b):
            flag_vec = b.flags.get(flag)
            if flag_vec is None:
                b.upc = taken if expected == 0 else not_taken
                return
            t = (flag_vec == expected) * 1
            b.settle(t * taken + (1 - t) * not_taken, "branch")

        return seq_branch

    if isinstance(terminator, Multiway):
        read_value = _b_src_reader(state, terminator.reg)
        cases = tuple(
            (*mask_bits(case.mask), resolve(case.target))
            for case in reversed(terminator.cases)
        )
        default = resolve(terminator.default)

        def seq_multiway(b):
            values = read_value(b)
            targets = _full(b.n, default)
            # Last to first, so the first matching arm wins.
            for care, want, target in cases:
                targets = _np.where(values & care == want, target, targets)
            b.settle(targets, "multiway")

        return seq_multiway

    if isinstance(terminator, Call):
        return_to = resolve(terminator.next)
        procedure = base + resident.program.procedures[terminator.proc]
        depth = state.machine.micro_stack_depth

        def seq_call(b):
            if len(b.micro_stack) >= depth:
                # Shared stack: every lane overflows identically.
                raise _PeelAll("stack-overflow")
            b.micro_stack.append(return_to)
            b.upc = procedure

        return seq_call

    if isinstance(terminator, Ret):
        def seq_ret(b):
            if not b.micro_stack:
                raise _PeelAll("stack-underflow")
            b.upc = b.micro_stack.pop()

        return seq_ret

    if isinstance(terminator, Exit):
        value = terminator.value
        if value is None:
            def seq_exit(b):
                b.halted = True

            return seq_exit
        read_value = _b_src_reader(state, value)

        def seq_exit_value(b):
            b.halted = True
            b.exit_value = read_value(b)

        return seq_exit_value

    raise _PeelAll(f"terminator {terminator!r}")


class _BatchPlan:
    """One control-store word, lowered for lockstep execution."""

    __slots__ = ("phases", "cycles", "sequence")

    def __init__(self, phases, cycles, sequence):
        self.phases = phases
        self.cycles = cycles
        self.sequence = sequence

    def execute(self, b: BatchedState) -> None:
        """Same commit discipline as the scalar plan: within a phase
        all reads see phase-entry state, then register writes commit,
        then memory actions, then flag updates."""
        for steps in self.phases:
            reg_writes: list = []
            flag_writes: dict = {}
            memory_ops: list[Callable[[], None]] = []
            for step in steps:
                step(b, reg_writes, flag_writes, memory_ops)
            if reg_writes:
                registers = b.registers
                for target, mask, value in reg_writes:
                    committed = value & mask
                    if PLANT_LANE_XOR:
                        committed[0] = int(committed[0]) ^ PLANT_LANE_XOR
                    registers[target] = committed
            for action in memory_ops:
                action()
            if flag_writes:
                b.flags.update(flag_writes)


def _b_decode_word(state, loaded, resident, address) -> _BatchPlan:
    machine = state.machine
    instruction = loaded.instruction
    phases = []
    for group in instruction.phase_groups(machine):
        steps = tuple(
            step
            for step in (_b_decode_op(state, placed) for placed in group)
            if step is not None
        )
        if steps:
            phases.append(steps)
    return _BatchPlan(
        phases=tuple(phases),
        cycles=instruction.cached_cycles(machine),
        sequence=_b_decode_terminator(
            state, instruction.terminator, address, resident
        ),
    )


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
    store = ControlStore(machine)
    resident = store.load(loaded)
    n = len(cases)
    b = BatchedState(machine, n, paging=paging)
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
            b.peel(lane, "init")
    for name, value in resident.program.constants.items():
        b.poke_constant(name, value)
    b.upc = resident.entry

    plans: dict[int, _BatchPlan] = {}
    decodes = 0
    instructions = 0
    try:
        while not b.halted and b.any_live():
            if b.cycles > max_cycles:
                # Scalar runs raise SimulationLimitError at exactly
                # this microinstruction boundary; the replay does too.
                b.peel_all("budget")
                break
            plan = plans.get(b.upc)
            if plan is None:
                plan = _b_decode_word(
                    b, store.fetch(b.upc), resident, b.upc
                )
                plans[b.upc] = plan
                decodes += 1
            plan.execute(b)
            if not b.any_live():
                break
            b.cycles += plan.cycles
            instructions += 1
            plan.sequence(b)
    except _PeelAll as stop:
        b.peel_all(stop.reason)
    except Exception:
        # Anything unforeseen (a fetch outside the resident, a decode
        # the scalar engine would reject): the scalar path is the
        # reference — replay every lane rather than guess.
        b.peel_all("error")

    outcomes: list[LaneOutcome | None] = [None] * n
    if not b.any_live():
        return outcomes
    # Per-run plan-cache counters, synthesised to match what a fresh
    # scalar simulator reports: misses are the distinct addresses
    # decoded, hits are the remaining executed microinstructions.
    plan_counters = {
        "hits": max(0, instructions - decodes),
        "misses": decodes,
        "invalidations": 0,
    }
    for lane in b.live_lanes():
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
            scratchpad=b.scratchpads[lane],
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
