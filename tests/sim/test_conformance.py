"""Per-op conformance: every engine against ``semantics.evaluate``.

Single-MI programs, built by hand, run every op of the shared ALU spec
(:data:`repro.sim.alu.ALU_SPEC`) on every machine whose op table has
it, over edge operand values: 0, 1, all-ones, the sign bit and the
largest positive value, in every pairing — which covers the carry-out
and borrow pairs.  The interpretive, decoded and traced (hot threshold
1) engines and a 4-lane batch must all leave exactly the register and
flag state the oracle computes.

Operand kinds follow the machines' op tables: an op is tried with
register sources when a variant takes registers, and with an
immediate when a variant takes one (on the six machines only ``movi``
does).  An immediate edge value the machine's literal field cannot
encode is not a program, and is left out.
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
from repro.sim.semantics import evaluate
from repro.sim.state import MachineState

#: Cycle budget for the looping form; long enough for the JIT to
#: record, stitch and enter its trace several times.
LOOP_CYCLES = 60


def _kinds(machine, name):
    variants = machine.op_variants(name)
    kinds = []
    if any(len(v.imm_srcs) < v.n_srcs for v in variants):
        kinds.append("register")
    if any(v.imm_srcs for v in variants):
        kinds.append("immediate")
    return kinds


MATRIX = [
    (machine_name, name, kind)
    for machine_name in machine_names()
    for name in ALU_SPEC
    if build_machine(machine_name).has_op(name)
    for kind in _kinds(build_machine(machine_name), name)
]


def _edges(machine):
    mask = machine.mask()
    sign = 1 << (machine.word_size - 1)
    return (0, 1, mask, sign, sign - 1)


def _operands(machine, name, kind):
    """(dest, source registers) for one op on one machine."""
    variant = machine.op_variants(name)[0]
    files = machine.registers
    pool = [r.name for r in files.allocatable(GPR)]
    dest_pool = (
        [r.name for r in files.allocatable(variant.dest_class)]
        if variant.dest_class else pool
    )
    dest = dest_pool[0]
    sources = [r for r in pool if r != dest]
    arity = 0 if kind == "immediate" else variant.n_srcs
    return dest, sources[:arity]


def _program(machine, name, dest, srcs, *, loop):
    builder = ProgramBuilder("conf", machine)
    builder.start_block("entry")
    writes = ALU_SPEC[name].writes
    builder.emit(mop(name, preg(dest) if writes else None, *srcs))
    if loop:
        builder.terminate(Jump("entry"))
    else:
        builder.exit(preg(dest))
    program = builder.finish()
    loaded = assemble(
        compose_program(program, machine, ListScheduler()), machine
    )
    assert len(loaded.words) == 1, "not a single-MI program"
    return loaded


def _simulator(machine, loaded, engine, registers):
    store = ControlStore(machine)
    store.load(loaded)
    simulator = Simulator(machine, store, engine=engine,
                          trace_hot_threshold=1)
    for register, value in registers.items():
        simulator.state.write_reg(register, value)
    return simulator


def _expected(machine, name, dest, values, registers):
    """Final (registers, flags) per the oracle, from a fresh state."""
    result = evaluate(name, list(values), machine.word_size)
    state_registers = {
        register.name: register.reset for register in machine.registers
    }
    state_registers.update(registers)
    if result.value is not None:
        state_registers[dest] = result.value & machine.registers[dest].mask
    flags = {flag: 0 for flag in machine.flags}
    flags.update(result.flags)
    return state_registers, flags


def _cases(machine, name, kind):
    """(loaded programs, register pokes, operand values) per case."""
    dest, sources = _operands(machine, name, kind)
    edges = _edges(machine)
    if kind == "immediate":
        for value in edges:
            try:
                programs = {
                    loop: _program(machine, name, dest, [Imm(value)],
                                   loop=loop)
                    for loop in (False, True)
                }
            except CompositionError:
                continue
            yield dest, programs, {}, (value,)
        return
    programs = {
        loop: _program(machine, name, dest, [preg(s) for s in sources],
                       loop=loop)
        for loop in (False, True)
    }
    for values in itertools.product(edges, repeat=len(sources)):
        yield dest, programs, dict(zip(sources, values)), values


@pytest.mark.parametrize("machine_name,name,kind", MATRIX)
def test_op_conforms_on_every_engine(machine_name, name, kind):
    machine = build_machine(machine_name)
    cases = list(_cases(machine, name, kind))
    expected = {}
    for dest, programs, registers, values in cases:
        want = _expected(machine, name, dest, values, registers)
        expected[values] = want
        label = f"{name} {values} on {machine_name}"
        for engine in ("interpretive", "decoded"):
            simulator = _simulator(machine, programs[False], engine,
                                   registers)
            simulator.run("conf")
            assert (simulator.state.registers, simulator.state.flags) \
                == want, f"{engine}: {label}"
        # The looping form runs to the cycle budget; the traced engine
        # stitches it on the first back edge and spends most of the
        # budget inside the trace.
        for engine in ("interpretive", "decoded", "traced"):
            simulator = _simulator(machine, programs[True], engine,
                                   registers)
            with pytest.raises(SimulationLimitError):
                simulator.run("conf", max_cycles=LOOP_CYCLES)
            assert (simulator.state.registers, simulator.state.flags) \
                == want, f"{engine} (loop): {label}"
        # Decoded iterations ran before the trace existed and left the
        # right answer behind, so replay exactly one stitched iteration
        # from a fresh state: the trace alone must compute it.
        jit = simulator._trace_jit
        (trace,) = jit.traces.values()
        fresh = MachineState(machine)
        for register, value in registers.items():
            fresh.write_reg(register, value)
        assert jit.execute(trace, fresh, fresh.cycles) == 1, label
        assert (fresh.registers, fresh.flags) == want, f"trace: {label}"
    # One 4-lane batch per program: lanes differ only in operand values,
    # and stay in lockstep wherever admission lets them batch.
    lockstep = engine_refusal("decoded", machine, lanes=4) is None
    by_program = {}
    for dest, programs, registers, values in cases:
        by_program.setdefault(id(programs[False]), (programs[False], []))[
            1].append((registers, values))
    for loaded, lanes in by_program.values():
        outcomes = run_cases(
            machine, loaded,
            [BatchCase(registers=registers) for registers, _ in lanes],
            batch=4,
        )
        for outcome, (_, values) in zip(outcomes, lanes):
            assert outcome.error is None, outcome.error
            assert not (lockstep and outcome.peeled)
            assert (outcome.registers, outcome.flags) == expected[values], \
                f"batch: {name} {values} on {machine_name}"


def test_matrix_covers_every_spec_op():
    """Every spec op is exercised on at least one machine, and both
    operand kinds appear."""
    assert {name for _, name, _ in MATRIX} == set(ALU_SPEC)
    assert {kind for _, _, kind in MATRIX} == {"register", "immediate"}
