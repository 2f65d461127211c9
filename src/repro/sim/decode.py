"""Pre-decoded execution engine (the simulator's fast path).

The interpretive :meth:`Simulator._execute_instruction` re-derives
everything about a control-store word on every execution: it groups
placed ops by phase, string-matches the micro-order name, isinstance-
tests every operand, resolves register names through the register
file, and walks the terminator's isinstance chain to sequence.  None
of that depends on machine state — only the *operand values* do — so
it can all be done once per word.

This module lowers a :class:`~repro.asm.assembler.LoadedWord` into an
:class:`ExecutionPlan`: phase-grouped tuples of *step closures* with
operand readers pre-bound (immediates inlined as constants, registers
resolved to direct slot lookups where the machine's banking allows),
semantics pre-dispatched (the hot ALU orders take the step closures
rendered from :mod:`repro.sim.alu`'s spec; the rest pre-bind
:func:`repro.sim.semantics.evaluate`), the microinstruction's
cycle count pre-computed, and the terminator compiled to a single
sequencing closure with label lookups already resolved to absolute
control-store addresses.  The hot loop then becomes "fetch plan, run
closures" — the regime VADL-style generated simulators live in.

**Fault-injection correctness.**  Plans are cached per absolute
address *and per encoded word* (:class:`PlanCache`): when a
:class:`~repro.faults.injectors.ControlStoreBitFlip` substitutes a
mutated word at fetch, its ``word`` differs from the pristine
encoding, so the cache misses and the flipped behaviour is decoded
fresh — a stale plan can never execute a bit-flipped word, and the
un-flipped plan is reused again if the injector is cycle-gated.
Campaigns therefore stay bit-accurate under the decoded engine (the
parity suite in ``tests/sim/test_decode.py`` checks this
instruction for instruction).

Exact-parity contract: a decoded run must match the interpretive run
in every observable — executed addresses, cycle accounting, register
and memory state, flags, traps raised and their order — for every
program the toolkit can assemble.  Where the interpretive path reads
state dynamically (banked register windows, the swappable
``state.memory``, the interrupt handler), the closures here do too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.asm.assembler import LoadedWord
from repro.asm.loader import ResidentProgram
from repro.errors import SimulationError
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
from repro.sim.alu import ALU_SPEC, step_factory
from repro.sim.semantics import condition_holds, evaluate
from repro.sim.state import StateBackend

#: A step runs one placed op against the live state.  It may append
#: pending commits to ``reg_writes`` / ``memory_ops``, update
#: ``flag_writes``, raise a :class:`~repro.errors.MicroTrap`, and
#: returns truthy iff it serviced a pending interrupt (``poll``).
Step = Callable[..., object]

#: Self-check plant: when non-zero, every decoded ``xor`` step XORs its
#: result with this — a semantic bug in the decoded engine alone, which
#: the difftest ``engine`` axis must catch.  0 in normal operation.
PLANT_XOR = 0

#: Branch conditions compiled to a direct flag test; anything else
#: falls back to :func:`condition_holds` (and raises identically for
#: unknown conditions).
_COND_TESTS = {
    "Z": ("Z", 1), "NZ": ("Z", 0),
    "N": ("N", 1), "NN": ("N", 0),
    "C": ("C", 1), "NC": ("C", 0),
    "UF": ("UF", 1), "NUF": ("UF", 0),
}


class ExecutionPlan:
    """One control-store word, lowered for repeated execution.

    ``phases`` holds one tuple of steps per occupied phase, in phase
    order; ``cycles`` is the pre-computed microinstruction latency;
    ``sequence`` advances the microprogram counter (labels already
    resolved against the resident program the plan was decoded for).
    """

    __slots__ = ("phases", "cycles", "sequence")

    def __init__(
        self,
        phases: tuple[tuple[Step, ...], ...],
        cycles: int,
        sequence: Callable[[StateBackend], None],
    ):
        self.phases = phases
        self.cycles = cycles
        self.sequence = sequence

    def execute(self, state: StateBackend) -> bool:
        """Run all phases; same commit discipline as the interpreter:
        within a phase all reads see phase-entry state, then register
        writes commit, then memory actions, then flag updates.

        Returns True if a pending interrupt was serviced by a ``poll``.
        """
        serviced = False
        for steps in self.phases:
            reg_writes: list[tuple[str, int | None, int]] = []
            flag_writes: dict[str, int] = {}
            memory_ops: list[Callable[[], None]] = []
            for step in steps:
                if step(state, reg_writes, flag_writes, memory_ops):
                    serviced = True
            if reg_writes:
                registers = state.registers
                for target, mask, value in reg_writes:
                    if mask is None:
                        state.write_reg(target, value)
                    else:
                        registers[target] = value & mask
            for action in memory_ops:
                action()
            if flag_writes:
                state.flags.update(flag_writes)
        return serviced


@dataclass
class PlanCacheStats:
    """Lifetime counters of one :class:`PlanCache`.

    Both counters are maintained on cold paths only (a decode, a
    wholesale invalidation), so the hot fetch-plan-execute loop never
    pays for them; per-run hit counts are derived in
    :meth:`repro.sim.simulator.Simulator.run` as executed instructions
    minus decodes — under the decoded engine every executed
    microinstruction runs exactly one plan.

    Attributes:
        decodes: Plans decoded and inserted (cache misses — including
            re-decodes forced by a fault injector substituting a
            mutated word, previously invisible).
        invalidations: Wholesale :meth:`PlanCache.invalidate` calls.
    """

    decodes: int = 0
    invalidations: int = 0


class PlanCache:
    """Per-simulator plan store with bit-flip-safe keying.

    Two tiers:

    * ``_by_word`` — keyed ``(resident base, address, encoded word)``;
      always consulted, so a fault injector substituting a mutated
      word gets a fresh decode (and flipping back reuses the pristine
      plan).
    * per-resident address maps (``addr_plans``) — the direct path the
      run loop uses when no injector, trace, or recorder is attached
      and the fetched word therefore cannot differ from the stored
      one; skips the control-store fetch entirely.
    """

    __slots__ = ("_by_word", "_by_addr", "stats")

    def __init__(self) -> None:
        self._by_word: dict[tuple[int, int, int], ExecutionPlan] = {}
        self._by_addr: dict[int, dict[int, ExecutionPlan]] = {}
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        return len(self._by_word)

    def addr_plans(self, resident: ResidentProgram) -> dict[int, ExecutionPlan]:
        """The fetch-free address map for one resident program."""
        return self._by_addr.setdefault(resident.base, {})

    def lookup(
        self, resident: ResidentProgram, address: int, loaded: LoadedWord
    ) -> ExecutionPlan | None:
        return self._by_word.get((resident.base, address, loaded.word))

    def insert(
        self,
        resident: ResidentProgram,
        address: int,
        loaded: LoadedWord,
        plan: ExecutionPlan,
        *,
        direct: bool,
    ) -> None:
        """Store a plan; ``direct=True`` additionally registers it on
        the fetch-free path (only legal when no injector can substitute
        words for this simulator)."""
        self.stats.decodes += 1
        self._by_word[(resident.base, address, loaded.word)] = plan
        if direct:
            self.addr_plans(resident)[address] = plan

    def invalidate(self) -> None:
        """Drop every cached plan (e.g. after reloading the store)."""
        self.stats.invalidations += 1
        self._by_word.clear()
        self._by_addr.clear()


# ----------------------------------------------------------------------
# Operand pre-resolution
# ----------------------------------------------------------------------
def _src_reader(files, operand) -> Callable[[StateBackend], int]:
    """A reader closure for one source operand.

    Immediates become constants; plain registers become direct slot
    lookups; banked windows (and names the register file does not
    know, which must keep raising through ``read_reg``) stay dynamic.
    """
    if not isinstance(operand, Reg):
        value = operand.value
        return lambda state: value
    name = operand.name
    if files.is_window(name) or name not in files.registers:
        return lambda state: state.read_reg(name)
    return lambda state: state.registers[name]


def _dest_slot(files, name: str) -> tuple[str, int | None]:
    """Pre-resolve a destination register to ``(target, mask)``.

    ``mask is None`` routes the commit through ``state.write_reg``
    (banked windows resolve against the bank pointer *at commit time*,
    and read-only/unknown registers raise exactly as the interpreter
    does); otherwise the commit is a direct masked slot store.
    """
    if files.is_window(name) or name not in files.registers:
        return (name, None)
    register = files.registers[name]
    if register.readonly:
        return (name, None)
    return (name, register.mask)


def inlines_alu(files, op) -> bool:
    """Whether an op takes its :data:`~repro.sim.alu.ALU_SPEC` inline
    form — the one predicate the decoded steps and the trace stitcher
    share.  Only results that commit to a plain writable register
    inline; windows, read-only and missing destinations take the
    generic ``evaluate`` path so error behaviour matches the
    interpreter."""
    spec = ALU_SPEC.get(op.op)
    if spec is None:
        return False
    if not spec.writes:
        return True
    return op.dest is not None and _dest_slot(files, op.dest.name)[1] is not None


# ----------------------------------------------------------------------
# Step factories
# ----------------------------------------------------------------------
def _step_poll(simulator) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        if state.interrupt_pending and simulator.interrupt_handler:
            simulator.interrupt_handler(state)
            state.interrupt_pending = False
            return True
        return False

    return step


def _step_read(read_addr, target, mask) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        reg_writes.append((target, mask, state.memory.read(read_addr(state))))

    return step


def _step_write(read_addr, read_data) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        address = read_addr(state)
        data = read_data(state)
        memory_ops.append(lambda a=address, d=data: state.memory.write(a, d))
        # Touch now so pagefaults surface at the op, not at commit
        # (write-allocate check) — same as the interpretive path.
        if not state.memory.is_mapped(address):
            state.memory.write(address, data)

    return step


def _step_ldscr(read_addr, target, mask) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        reg_writes.append(
            (target, mask, state.scratchpad.read(read_addr(state)))
        )

    return step


def _step_stscr(read_value, read_addr) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        value = read_value(state)
        address = read_addr(state)
        memory_ops.append(
            lambda a=address, v=value: state.scratchpad.write(a, v)
        )

    return step


def _step_setblk(read_value, pointer: str | None, mask: int | None) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        value = read_value(state)
        if pointer is None:
            raise SimulationError("setblk on unbanked machine")
        reg_writes.append((pointer, mask, value))

    return step


def _step_generic(name, readers, dest, commit, read_old, width) -> Step:
    """Fallback for ops without an inlined specialization: pre-bound
    :func:`evaluate` call with the interpreter's exact argument set."""

    def step(state, reg_writes, flag_writes, memory_ops):
        src_values = [read(state) for read in readers]
        result = evaluate(
            name,
            src_values,
            width,
            dest_old=read_old(state) if read_old is not None else 0,
            carry_in=state.flags.get("C", 0),
        )
        if result.value is not None and dest:
            reg_writes.append((commit[0], commit[1], result.value))
        if result.flags:
            flag_writes.update(result.flags)

    return step


def _decode_op(simulator, placed) -> Step | None:
    """Lower one placed op to a step closure (None for ``nop``)."""
    machine = simulator.machine
    files = machine.registers
    op = placed.op
    name = op.op
    if name == "nop":
        return None
    if name == "poll":
        return _step_poll(simulator)

    readers = tuple(_src_reader(files, src) for src in op.srcs)
    if name == "read":
        target, mask = _dest_slot(files, op.dest.name)
        return _step_read(readers[0], target, mask)
    if name == "write":
        return _step_write(readers[0], readers[1])
    if name == "ldscr":
        target, mask = _dest_slot(files, op.dest.name)
        return _step_ldscr(readers[0], target, mask)
    if name == "stscr":
        return _step_stscr(readers[0], readers[1])
    if name == "setblk":
        pointer = files.bank_pointer
        if pointer is None:
            return _step_setblk(readers[0], None, None)
        target, mask = _dest_slot(files, pointer)
        return _step_setblk(readers[0], target, mask)

    if inlines_alu(files, op):
        target, mask = (
            _dest_slot(files, op.dest.name) if op.dest is not None
            else ("", None)
        )
        make = step_factory(name, PLANT_XOR if name == "xor" else 0)
        # Unary templates never read ``b``; any reader will do there.
        return make(readers[0], readers[-1], target, mask, machine.mask(),
                    machine.word_size - 1)

    if op.dest is not None:
        commit = _dest_slot(files, op.dest.name)
        read_old = _src_reader(files, op.dest)
    else:
        commit = ("", None)
        read_old = None
    return _step_generic(
        name, readers, op.dest is not None, commit, read_old,
        machine.word_size,
    )


# ----------------------------------------------------------------------
# Terminator pre-decoding
# ----------------------------------------------------------------------
def _decode_terminator(
    simulator, terminator, address: int, resident: ResidentProgram
) -> Callable[[StateBackend], None]:
    """Compile sequencing to one closure with absolute targets."""
    base = resident.base
    labels = resident.program.labels

    def resolve(label: str) -> int:
        return base + labels[label]

    if terminator is None:
        successor = address + 1

        def seq_next(state):
            state.upc = successor

        return seq_next

    if isinstance(terminator, (Fallthrough, Jump)):
        target = resolve(terminator.target)

        def seq_jump(state):
            state.upc = target

        return seq_jump

    if isinstance(terminator, Branch):
        taken = resolve(terminator.target)
        not_taken = resolve(terminator.otherwise)
        cond = terminator.cond
        if cond == "TRUE":
            def seq_always(state):
                state.upc = taken

            return seq_always
        test = _COND_TESTS.get(cond)
        if test is None:
            def seq_cond_generic(state):
                state.upc = (
                    taken if condition_holds(cond, state.flags) else not_taken
                )

            return seq_cond_generic
        flag, expected = test

        def seq_branch(state):
            state.upc = (
                taken if state.flags.get(flag, 0) == expected else not_taken
            )

        return seq_branch

    if isinstance(terminator, Multiway):
        read_value = _src_reader(simulator.machine.registers, terminator.reg)
        cases = tuple(
            (*mask_bits(case.mask), resolve(case.target))
            for case in terminator.cases
        )
        default = resolve(terminator.default)

        def seq_multiway(state):
            value = read_value(state)
            for care, want, target in cases:
                if value & care == want:
                    state.upc = target
                    return
            state.upc = default

        return seq_multiway

    if isinstance(terminator, Call):
        return_to = resolve(terminator.next)
        procedure = base + resident.program.procedures[terminator.proc]

        def seq_call(state):
            state.push_return(return_to)
            state.upc = procedure

        return seq_call

    if isinstance(terminator, Ret):
        def seq_ret(state):
            state.upc = state.pop_return()

        return seq_ret

    if isinstance(terminator, Exit):
        value = terminator.value
        if value is None:
            def seq_exit(state):
                state.halted = True

            return seq_exit
        value_reg = value.name

        def seq_exit_value(state):
            state.halted = True
            state.exit_value = state.read_reg(value_reg)

        return seq_exit_value

    raise SimulationError(f"unknown terminator {terminator!r}")


# ----------------------------------------------------------------------
def terminator_metadata(
    terminator, address: int, resident: ResidentProgram
) -> dict:
    """Static sequencing facts about one word's terminator.

    Plan metadata for the trace stitcher (:mod:`repro.sim.trace`):
    instead of re-deriving label resolution, the stitcher compiles its
    guards from this, with targets resolved to absolute control-store
    addresses exactly as :func:`_decode_terminator` resolves them —
    one source of truth for sequencing.
    """
    base = resident.base
    labels = resident.program.labels
    if terminator is None:
        return {"kind": "jump", "target": address + 1}
    if isinstance(terminator, (Fallthrough, Jump)):
        return {"kind": "jump", "target": base + labels[terminator.target]}
    if isinstance(terminator, Branch):
        return {
            "kind": "branch",
            "cond": terminator.cond,
            "taken": base + labels[terminator.target],
            "not_taken": base + labels[terminator.otherwise],
        }
    if isinstance(terminator, Multiway):
        return {"kind": "multiway"}
    if isinstance(terminator, Call):
        return {
            "kind": "call",
            "target": base + resident.program.procedures[terminator.proc],
            "return_to": base + labels[terminator.next],
        }
    if isinstance(terminator, Ret):
        return {"kind": "ret"}
    if isinstance(terminator, Exit):
        return {"kind": "exit"}
    raise SimulationError(f"unknown terminator {terminator!r}")


# ----------------------------------------------------------------------
def decode_word(
    simulator, loaded: LoadedWord, resident: ResidentProgram, address: int
) -> ExecutionPlan:
    """Lower one loaded control-store word into an execution plan."""
    machine = simulator.machine
    instruction = loaded.instruction
    phases = []
    for group in instruction.phase_groups(machine):
        steps = tuple(
            step
            for step in (_decode_op(simulator, placed) for placed in group)
            if step is not None
        )
        if steps:
            phases.append(steps)
    return ExecutionPlan(
        phases=tuple(phases),
        cycles=instruction.cached_cycles(machine),
        sequence=_decode_terminator(
            simulator, instruction.terminator, address, resident
        ),
    )
