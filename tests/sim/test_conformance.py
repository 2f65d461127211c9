"""Per-op conformance: every engine against ``semantics.evaluate``.

Small programs, built by hand, run every pure op in each machine's op
table — the shared ALU spec (:data:`repro.sim.alu.ALU_SPEC`) and the
ops outside it (shifts and rotates, ``not/neg/nand/nor``, ``mul``,
``adc``, ``ext``/``dep``) — over edge operand values: 0, 1, all-ones,
the sign bit and the largest positive value, in every pairing, which
covers the carry-out and borrow pairs.  Shift counts and bit-field
positions and widths take 0, 1, width-1 and width.  ``adc`` runs with
carry-in 0 and with carry-in 1 (a ``cmp`` of a source with itself sets
C first), and ``dep`` over edge values already in its destination.
The interpretive, decoded and traced (hot threshold 1) engines and
4-lane batches, which must not peel, must all leave exactly the
register and flag state the oracle computes.

Operand kinds follow the machines' op tables: each variant takes
registers or immediates position by position (``register``, all
registers; ``immediate``, all immediates — on the six machines only
``movi``; ``mixed``, a register beside count or field immediates).  An
immediate the machine's literal field cannot encode is not a program,
and is left out.
"""

import itertools

import pytest

from repro.asm import ControlStore, assemble
from repro.compose import ListScheduler, compose_program
from repro.errors import CompositionError, SimulationLimitError
from repro.machine.registers import GPR
from repro.mir import Imm, Jump, ProgramBuilder, mop, preg
from repro.registry import build_machine, machine_names
from repro.sim import BatchCase, Simulator, engine_refusal, run_cases
from repro.sim.alu import ALU_SPEC
from repro.sim.semantics import STATEFUL_OPS, evaluate
from repro.sim.state import MachineState

#: Cycle budget for the looping form; long enough for the JIT to
#: record, stitch and enter its trace several times.
LOOP_CYCLES = 60


def _kind(variant):
    immediates = len(variant.imm_srcs)
    if not immediates:
        return "register"
    return "immediate" if immediates == variant.n_srcs else "mixed"


def _kinds(machine, name):
    kinds = []
    for variant in machine.op_variants(name):
        if _kind(variant) not in kinds:
            kinds.append(_kind(variant))
    return kinds


def _pure_ops(machine):
    return sorted(set(machine.ops.names()) - STATEFUL_OPS)


MATRIX = [
    (machine_name, name, kind)
    for machine_name in machine_names()
    for name in _pure_ops(build_machine(machine_name))
    for kind in _kinds(build_machine(machine_name), name)
]


def _edges(machine):
    mask = machine.mask()
    sign = 1 << (machine.word_size - 1)
    return (0, 1, mask, sign, sign - 1)


def _operands(machine, variant):
    """(dest, source register per register position) for one variant."""
    files = machine.registers
    pool = [r.name for r in files.allocatable(GPR)]
    dest_pool = (
        [r.name for r in files.allocatable(variant.dest_class)]
        if variant.dest_class else pool
    )
    dest = dest_pool[0]
    sources = [r for r in pool if r != dest]
    return dest, sources[:variant.n_srcs - len(variant.imm_srcs)]


def _program(machine, name, dest, srcs, *, loop, carry):
    builder = ProgramBuilder("conf", machine)
    builder.start_block("entry")
    if carry:
        # a + ~a + 1 always carries out: C = 1 for the op that follows.
        builder.emit(mop("cmp", None, srcs[0], srcs[0]))
    writes = name not in ALU_SPEC or ALU_SPEC[name].writes
    builder.emit(mop(name, preg(dest) if writes else None, *srcs))
    if loop:
        builder.terminate(Jump("entry"))
    else:
        builder.exit(preg(dest))
    program = builder.finish()
    loaded = assemble(
        compose_program(program, machine, ListScheduler()), machine
    )
    assert carry or len(loaded.words) == 1, "not a single-MI program"
    return loaded


def _simulator(machine, loaded, engine, registers):
    store = ControlStore(machine)
    store.load(loaded)
    simulator = Simulator(machine, store, engine=engine,
                          trace_hot_threshold=1)
    for register, value in registers.items():
        simulator.state.write_reg(register, value)
    return simulator


def _expected(machine, name, dest, case, iterations=1):
    """Final (registers, flags) per the oracle, from a fresh state,
    after ``iterations`` runs of the program body: a looping ``adc``
    without the ``cmp`` carries its carry-out into the next run."""
    _, registers, values, _, carry = case
    width = machine.word_size
    state_registers = {
        register.name: register.reset for register in machine.registers
    }
    state_registers.update(registers)
    flags = {flag: 0 for flag in machine.flags}
    for _ in range(iterations):
        if carry:
            flags.update(evaluate("cmp", [values[0]] * 2, width).flags)
        result = evaluate(name, list(values), width,
                          dest_old=state_registers[dest],
                          carry_in=flags["C"])
        if result.value is not None:
            state_registers[dest] = (
                result.value & machine.registers[dest].mask
            )
        flags.update(result.flags)
    return state_registers, flags


def _cases(machine, name, kind):
    """dest, then (programs, register pokes, operand values, dest_old,
    carry_in) per case."""
    variant = next(v for v in machine.op_variants(name) if _kind(v) == kind)
    dest, registers = _operands(machine, variant)
    width = machine.word_size
    edges = _edges(machine)
    # A lone immediate is a value; one beside a register is a shift
    # count or a bit-field position or width.
    literals = edges if kind == "immediate" else (0, 1, width - 1, width)
    positions = range(variant.n_srcs)
    immediate_at = [p for p in positions if p in variant.imm_srcs]
    register_at = [p for p in positions if p not in variant.imm_srcs]
    olds = edges if variant.reads_dest else (0,)
    carries = (0, 1) if "C" in variant.reads_flags else (0,)
    cases = []
    for literal_values in itertools.product(literals,
                                            repeat=len(immediate_at)):
        operands = dict(zip(immediate_at, literal_values))
        srcs = [
            Imm(operands[p]) if p in operands
            else preg(registers[register_at.index(p)])
            for p in positions
        ]
        for carry in carries:
            try:
                programs = {
                    loop: _program(machine, name, dest, srcs, loop=loop,
                                   carry=carry)
                    for loop in (False, True)
                }
            except CompositionError:
                continue
            for register_values in itertools.product(
                    edges, repeat=len(register_at)):
                operands.update(zip(register_at, register_values))
                values = tuple(operands[p] for p in positions)
                for old in olds:
                    pokes = dict(zip(registers, register_values))
                    if variant.reads_dest:
                        pokes[dest] = old
                    cases.append((programs, pokes, values, old, carry))
    return dest, cases


def _loop_budget(machine, loaded):
    """(cycle budget, iterations run, cycles per iteration): the budget
    stops the loop right after a whole iteration."""
    period = sum(
        word.instruction.cached_cycles(machine) for word in loaded.words
    )
    iterations = -(-LOOP_CYCLES // period)
    return iterations * period - 1, iterations, period


@pytest.mark.parametrize("machine_name,name,kind", MATRIX)
def test_op_conforms_on_every_engine(machine_name, name, kind):
    machine = build_machine(machine_name)
    dest, cases = _cases(machine, name, kind)
    assert cases, f"no encodable {name} program on {machine_name}"
    for case in cases:
        programs, registers, values, dest_old, carry = case
        want = _expected(machine, name, dest, case)
        label = (f"{name} {values} (dest {dest_old}, carry {carry}) "
                 f"on {machine_name}")
        for engine in ("interpretive", "decoded"):
            simulator = _simulator(machine, programs[False], engine,
                                   registers)
            simulator.run("conf")
            assert (simulator.state.registers, simulator.state.flags) \
                == want, f"{engine}: {label}"
        # The looping form runs to the cycle budget; the traced engine
        # stitches it on the first back edge and spends most of the
        # budget inside the trace.
        budget, iterations, period = _loop_budget(machine, programs[True])
        looped = _expected(machine, name, dest, case, iterations)
        for engine in ("interpretive", "decoded", "traced"):
            simulator = _simulator(machine, programs[True], engine,
                                   registers)
            with pytest.raises(SimulationLimitError):
                simulator.run("conf", max_cycles=budget)
            assert (simulator.state.registers, simulator.state.flags) \
                == looped, f"{engine} (loop): {label}"
        # Decoded iterations ran before the trace existed, so replay exactly one stitched iteration
        # from a fresh state: the trace alone must compute it.
        jit = simulator._trace_jit
        (trace,) = jit.traces.values()
        fresh = MachineState(machine)
        for register, value in registers.items():
            fresh.write_reg(register, value)
        assert jit.execute(trace, fresh, fresh.cycles + period - 1) \
            == len(programs[True].words), label
        assert (fresh.registers, fresh.flags) == want, f"trace: {label}"
    # 4-lane batches per program: lanes differ only in operand values,
    # and stay in lockstep wherever admission lets them batch.
    lockstep = engine_refusal("decoded", machine, lanes=4) is None
    by_program = {}
    for case in cases:
        loaded = case[0][False]
        by_program.setdefault(id(loaded), (loaded, []))[1].append(case)
    for loaded, lanes in by_program.values():
        outcomes = run_cases(
            machine, loaded,
            [BatchCase(registers=case[1]) for case in lanes],
            batch=4,
        )
        for outcome, case in zip(outcomes, lanes):
            assert outcome.error is None, outcome.error
            assert not (lockstep and outcome.peeled)
            assert (outcome.registers, outcome.flags) \
                == _expected(machine, name, dest, case), \
                f"batch: {name} {case[2]} on {machine_name}"


def test_matrix_covers_every_spec_op():
    """Every pure op of every machine's op table is exercised — the
    spec ops among them — and every operand kind appears."""
    pure = {
        name for machine_name in machine_names()
        for name in _pure_ops(build_machine(machine_name))
    }
    assert {name for _, name, _ in MATRIX} == pure >= set(ALU_SPEC)
    assert {kind for _, _, kind in MATRIX} \
        == {"register", "immediate", "mixed"}
