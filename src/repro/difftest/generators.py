"""Seeded per-language source generators for differential testing.

One abstract *program plan* — initialized variables, single-operator
arithmetic, bounded countdown loops, two-armed conditionals, memory
traffic where the language has it, and a terminal xor-fold that keeps
every observed variable live to the end — is rendered into concrete
source text by one renderer per registered front end.  The shared plan
keeps the five generators semantically comparable (the same kind of
program space is explored everywhere) while each renderer speaks its
language's §2.2.x surface syntax.

Generators are *machine-driven*: operand registers come from the
target's allocatable pool and micro-operations are filtered through
``machine.has_op``, so the same generator works on HM1, CM1 and VM1
alike.  Generation is deterministic per ``rng`` state; the harness
derives one :class:`random.Random` per case from the campaign seed.

Every generated program terminates by construction: loops are
countdowns from small literals over strictly decremented counters,
and there is no other backwards control flow.

Registration: each generator is installed with
:func:`repro.registry.register_generator`, making "every language has
a generator" a property the self-tests can check mechanically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.machine.machine import MicroArchitecture
from repro.machine.registers import GPR
from repro.registry import register_generator

#: Abstract ALU operators -> the micro-operation that must exist.
_ALU_OPS = {"+": "add", "-": "sub", "&": "and", "|": "or", "xor": "xor"}
#: Relational operators shared by every front end's condition syntax.
_RELOPS = ("=", "#", "<", "<=", ">", ">=")
#: Inverted relop, for rendering if/else as a conditional skip (YALLL).
_INVERT = {"=": "#", "#": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

#: Memory region diffed by the oracle, per data-base convention.
YALLL_BASE = 0x0100
SIMPL_BASE = 0x0140
EMPL_BASE = 0x6000   # the front end's data_base default
MPL_BASE = 0x6800    # the front end's data_base default
REGION_WORDS = 8


class GeneratorRefusal(ReproError):
    """A generator cannot target a machine (no supported ALU op, or an
    allocatable register pool too small for the plan's roles).  The
    harness skips the (language, machine) pair and reports it."""


@dataclass(frozen=True)
class GeneratedCase:
    """One generated differential-test case, ready for the oracle.

    Attributes:
        lang: Registered language name.
        machine: Registered machine name the source was generated for.
        seed: The per-case seed (reproduces the case exactly).
        source: The program text.
        name: Program name (passed as the ``name=`` compile option on
            front ends that accept one).
        observe: Source-level names whose final values the oracle
            reads (resolved through the allocation mapping).
        physical_observe: True when ``observe`` names physical
            registers (SIMPL/MPL/S*), so observations stay comparable
            *across* different compilations of the same source.
        memory: Initial memory image (address -> word).
        mem_region: ``(base, length)`` of the data region the oracle
            dumps and diffs, or None when the case never touches
            memory.
        uses_memory: The program executes read/write micro-operations
            (enables the paging/trap execution mode).
        has_stores: The program writes main memory (trapped runs of
            storing programs are only compared engine-vs-engine, never
            against a trap-free golden).
    """

    lang: str
    machine: str
    seed: int
    source: str
    name: str = "difftest"
    observe: tuple[str, ...] = ()
    physical_observe: bool = False
    memory: dict = field(default_factory=dict)
    mem_region: tuple[int, int] | None = None
    uses_memory: bool = False
    has_stores: bool = False

    def with_source(self, source: str) -> "GeneratedCase":
        """The same case over different source text (reduction)."""
        return replace(self, source=source)


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Caps:
    """What one language's renderer can express."""

    shifts: bool = True
    memory: bool = False
    if_else: bool = True


def _build_plan(
    rng: random.Random,
    variables: list[str],
    counters: list[str],
    caps: _Caps,
    alu_pool: list[str],
    shift_pool: list[str],
    n_stmts: int,
) -> list:
    """A recursive statement plan over abstract variable names.

    Literals come from a small per-case pool and loops count down from
    2 or 3: SIMPL-class front ends have *no* wide-literal synthesis —
    every distinct non-{0, 1, -1} literal permanently occupies one of
    a handful of constant-ROM slots (C0..C7 on the reference
    machines), so an unbounded literal stream would exhaust the ROM
    mid-program.  Memory statements draw from two fixed slots per case
    for the same reason (each distinct address is a literal).
    """
    pool = sorted({rng.randint(2, 255) for _ in range(3)} | {0, 1})
    slot_pool = rng.sample(range(REGION_WORDS), 2)

    def _literal(rng: random.Random) -> int:
        return rng.choice(pool)

    def operand(allow_literal: bool = True):
        if allow_literal and rng.random() < 0.3:
            return _literal(rng)
        return rng.choice(variables)

    def statements(budget: int, depth: int) -> list:
        body: list = []
        while budget > 0:
            roll = rng.random()
            if roll < 0.55 or depth >= 2 and roll < 0.8:
                op = rng.choice(alu_pool)
                body.append(("alu", op, rng.choice(variables),
                             operand(False), operand()))
                budget -= 1
            elif roll < 0.65 and caps.shifts and shift_pool:
                body.append(("shift", rng.choice(shift_pool),
                             rng.choice(variables), operand(False), 1))
                budget -= 1
            elif roll < 0.75 and depth < 2 and counters:
                counter = counters[depth]
                inner = statements(min(budget, rng.randint(1, 3)), depth + 1)
                body.append(("loop", counter, rng.choice((2, 3)), inner))
                budget -= max(1, len(inner))
            elif roll < 0.85 and caps.memory:
                slot = rng.choice(slot_pool)
                if rng.random() < 0.5:
                    body.append(("store", slot, rng.choice(variables)))
                else:
                    body.append(("load", rng.choice(variables), slot))
                budget -= 1
            else:
                cond = (operand(False), rng.choice(_RELOPS), operand())
                then_body = statements(min(budget, rng.randint(1, 2)),
                                       depth + 1)
                else_body = (
                    statements(min(budget, rng.randint(1, 2)), depth + 1)
                    if caps.if_else and rng.random() < 0.5 else None
                )
                body.append(("if", cond, then_body, else_body))
                budget -= max(1, len(then_body) + len(else_body or []))
        return body

    plan: list = [("init", name, _literal(rng)) for name in variables]
    plan.extend(statements(n_stmts, 0))
    plan.append(("foldall",))
    return plan


def _plan_touches_memory(plan: list) -> tuple[bool, bool]:
    """(uses_memory, has_stores) over the whole plan."""
    uses = stores = False
    for node in plan:
        kind = node[0]
        if kind == "store":
            uses = stores = True
        elif kind == "load":
            uses = True
        elif kind == "loop":
            u, s = _plan_touches_memory(node[3])
            uses, stores = uses or u, stores or s
        elif kind == "if":
            for branch in (node[2], node[3] or []):
                u, s = _plan_touches_memory(branch)
                uses, stores = uses or u, stores or s
    return uses, stores


def _machine_pools(
    machine: MicroArchitecture,
) -> tuple[list[str], list[str], list[str]]:
    """(registers, alu ops, shift ops) the machine supports."""
    registers = [r.name for r in machine.registers.allocatable(GPR)]
    alu = [op for op, micro in _ALU_OPS.items() if machine.has_op(micro)]
    if not alu:
        raise GeneratorRefusal(
            f"machine {machine.name!r} supports none of the difftest "
            f"ALU ops ({', '.join(_ALU_OPS.values())})"
        )
    shifts = [op for op in ("shl", "shr") if machine.has_op(op)]
    return registers, alu, shifts


def _size(rng: random.Random, size: int | None) -> int:
    return size if size is not None else rng.randint(6, 18)


def _has_mem(machine: MicroArchitecture) -> bool:
    return machine.has_op("read") and machine.has_op("write")


# ----------------------------------------------------------------------
# YALLL
# ----------------------------------------------------------------------
def generate_yalll(
    machine: MicroArchitecture, rng: random.Random, *, size: int | None = None
) -> GeneratedCase:
    """A YALLL program over symbolic variables, folding into ``exit``."""
    n_regs = len(machine.registers.allocatable(GPR))
    _, alu, shifts = _machine_pools(machine)
    memory_ok = _has_mem(machine)
    n_vars = min(3, max(2, n_regs - 5))
    variables = [f"v{i}" for i in range(n_vars)]
    counters = ["k0", "k1"]
    plan = _build_plan(
        rng, variables, counters,
        _Caps(shifts=bool(shifts), memory=memory_ok),
        alu, shifts, _size(rng, size),
    )
    uses_memory, has_stores = _plan_touches_memory(plan)

    lines: list[str] = []
    labels = iter(range(1000))

    def emit(statement_list: list) -> None:
        for node in statement_list:
            kind = node[0]
            if kind == "init":
                lines.append(f"    put {node[1]},{node[2]}")
            elif kind == "alu":
                _, op, dest, a, b = node
                lines.append(f"    {_ALU_OPS[op]} {dest},{a},{b}")
            elif kind == "shift":
                _, direction, dest, src, count = node
                lines.append(f"    {direction} {dest},{src},{count}")
            elif kind == "loop":
                _, counter, n, body = node
                label = f"loop{next(labels)}"
                lines.append(f"    put {counter},{n}")
                lines.append(f"{label}:")
                emit(body)
                lines.append(f"    sub {counter},{counter},1")
                lines.append(f"    jump {label} if {counter} # 0")
            elif kind == "if":
                _, (a, relop, b), then_body, else_body = node
                index = next(labels)
                skip, end = f"skip{index}", f"end{index}"
                lines.append(f"    jump {skip} if {a} {_INVERT[relop]} {b}")
                emit(then_body)
                if else_body is not None:
                    lines.append(f"    jump {end}")
                    lines.append(f"{skip}:")
                    emit(else_body)
                    lines.append(f"{end}:")
                else:
                    lines.append(f"{skip}:")
            elif kind == "store":
                _, slot, var = node
                lines.append(f"    put ad0,{YALLL_BASE + slot}")
                lines.append(f"    stor {var},ad0")
            elif kind == "load":
                _, var, slot = node
                lines.append(f"    put ad0,{YALLL_BASE + slot}")
                lines.append(f"    load {var},ad0")
            elif kind == "foldall":
                lines.append("    put fold,0")
                for var in variables:
                    lines.append(f"    xor fold,fold,{var}")
                lines.append("    exit fold")

    emit(plan)
    return GeneratedCase(
        lang="yalll", machine=machine.name, seed=0,
        source="\n".join(lines) + "\n",
        observe=tuple(variables) + ("fold",),
        physical_observe=False,
        memory={YALLL_BASE + i: (i * 17 + 3) & 0xFFFF
                for i in range(REGION_WORDS)} if uses_memory else {},
        mem_region=(YALLL_BASE, REGION_WORDS) if uses_memory else None,
        uses_memory=uses_memory, has_stores=has_stores,
    )


# ----------------------------------------------------------------------
# SIMPL / MPL (shared ALGOL-ish renderer)
# ----------------------------------------------------------------------
def _render_algol(
    plan: list,
    variables: list[str],
    acc: str,
    *,
    indent: str = "    ",
    store=None,
    load=None,
    shift_op: str = "^",
) -> list[str]:
    """Statement lines for the SIMPL/MPL surface syntax.

    ``store(slot, var)`` / ``load(var, slot)`` render the language's
    memory access (``write``/``read`` for SIMPL, arrays for MPL).
    """
    lines: list[str] = []

    def emit(statement_list: list, depth: int) -> None:
        pad = indent * (depth + 1)
        for node in statement_list:
            kind = node[0]
            if kind == "init":
                lines.append(f"{pad}{node[2]} -> {node[1]};")
            elif kind == "alu":
                _, op, dest, a, b = node
                lines.append(f"{pad}{a} {op} {b} -> {dest};")
            elif kind == "shift":
                _, direction, dest, src, count = node
                count = count if direction == "shl" else -count
                lines.append(f"{pad}{src} {shift_op} {count} -> {dest};")
            elif kind == "loop":
                _, counter, n, body = node
                lines.append(f"{pad}{n} -> {counter};")
                lines.append(f"{pad}while {counter} # 0 do")
                lines.append(f"{pad}begin")
                emit(body, depth + 1)
                lines.append(f"{pad}{indent}{counter} - 1 -> {counter};")
                lines.append(f"{pad}end;")
            elif kind == "if":
                _, (a, relop, b), then_body, else_body = node
                lines.append(f"{pad}if {a} {relop} {b} then")
                lines.append(f"{pad}begin")
                emit(then_body, depth + 1)
                lines.append(f"{pad}end")
                if else_body is not None:
                    lines.append(f"{pad}else")
                    lines.append(f"{pad}begin")
                    emit(else_body, depth + 1)
                    lines.append(f"{pad}end;")
                else:
                    lines.append(f"{pad};")
            elif kind == "store":
                lines.append(pad + store(node[1], node[2]))
            elif kind == "load":
                lines.append(pad + load(node[1], node[2]))
            elif kind == "foldall":
                lines.append(f"{pad}0 -> {acc};")
                for var in variables:
                    lines.append(f"{pad}{acc} xor {var} -> {acc};")

    emit(plan, 0)
    return lines


def _register_split(
    rng: random.Random, registers: list[str], *, reserve: int = 0
) -> tuple[list[str], list[str], str, list[str]]:
    """Partition a machine's register pool into generator roles."""
    pool = list(registers)
    rng.shuffle(pool)
    n_vars = min(3, len(pool) - 3 - reserve)
    if n_vars < 2:
        raise GeneratorRefusal(
            f"register pool too small for difftest generation: {registers}"
        )
    variables = pool[:n_vars]
    counters = pool[n_vars:n_vars + 2]
    acc = pool[n_vars + 2]
    spare = pool[n_vars + 3:]
    return variables, counters, acc, spare


def generate_simpl(
    machine: MicroArchitecture, rng: random.Random, *, size: int | None = None
) -> GeneratedCase:
    """A SIMPL program over the machine's own register names."""
    registers, alu, shifts = _machine_pools(machine)
    variables, counters, acc, _ = _register_split(rng, registers)
    memory_ok = _has_mem(machine)
    plan = _build_plan(
        rng, variables, counters,
        _Caps(shifts=bool(shifts), memory=memory_ok),
        alu, shifts, _size(rng, size),
    )
    uses_memory, has_stores = _plan_touches_memory(plan)
    body = _render_algol(
        plan, variables, acc,
        store=lambda slot, var: f"write({SIMPL_BASE + slot}, {var});",
        load=lambda var, slot: f"read({SIMPL_BASE + slot}) -> {var};",
    )
    source = "program difftest;\nbegin\n" + "\n".join(body) + "\nend\n"
    return GeneratedCase(
        lang="simpl", machine=machine.name, seed=0, source=source,
        observe=tuple(variables) + (acc,), physical_observe=True,
        memory={SIMPL_BASE + i: (i * 23 + 7) & 0xFFFF
                for i in range(REGION_WORDS)} if uses_memory else {},
        mem_region=(SIMPL_BASE, REGION_WORDS) if uses_memory else None,
        uses_memory=uses_memory, has_stores=has_stores,
    )


def generate_mpl(
    machine: MicroArchitecture, rng: random.Random, *, size: int | None = None
) -> GeneratedCase:
    """An MPL program: SIMPL's shapes plus arrays (and their memory)."""
    registers, alu, shifts = _machine_pools(machine)
    variables, counters, acc, _ = _register_split(rng, registers)
    memory_ok = _has_mem(machine)
    plan = _build_plan(
        rng, variables, counters,
        _Caps(shifts=bool(shifts), memory=memory_ok),
        alu, shifts, _size(rng, size),
    )
    uses_memory, has_stores = _plan_touches_memory(plan)
    body = _render_algol(
        plan, variables, acc,
        store=lambda slot, var: f"{var} -> ARR[{slot}];",
        load=lambda var, slot: f"ARR[{slot}] -> {var};",
    )
    header = "program difftest;\n"
    if uses_memory:
        header += f"array ARR[{REGION_WORDS}];\n"
    source = header + "begin\n" + "\n".join(body) + "\nend\n"
    return GeneratedCase(
        lang="mpl", machine=machine.name, seed=0, source=source,
        observe=tuple(variables) + (acc,), physical_observe=True,
        memory={MPL_BASE + i: (i * 29 + 11) & 0xFFFF
                for i in range(REGION_WORDS)} if uses_memory else {},
        mem_region=(MPL_BASE, REGION_WORDS) if uses_memory else None,
        uses_memory=uses_memory, has_stores=has_stores,
    )


# ----------------------------------------------------------------------
# S*
# ----------------------------------------------------------------------
def generate_sstar(
    machine: MicroArchitecture, rng: random.Random, *, size: int | None = None
) -> GeneratedCase:
    """An S(M) program with every variable explicitly bound (§2.2.3)."""
    registers, alu, shifts = _machine_pools(machine)
    bind_vars, bind_counters, bind_acc, _ = _register_split(rng, registers)
    variables = [f"x{i}" for i in range(len(bind_vars))]
    counters = [f"c{i}" for i in range(len(bind_counters))]
    acc = "xacc"
    plan = _build_plan(
        rng, variables, counters,
        _Caps(shifts=bool(shifts), memory=False),
        alu, shifts, _size(rng, size),
    )
    width = machine.word_size - 1
    decls = [
        f"var {name} : seq [{width}..0] bit bind {reg};"
        for name, reg in zip(
            variables + counters + [acc],
            bind_vars + bind_counters + [bind_acc],
        )
    ]
    relops = {"#": "<>"}

    # S* statement lists take *optional* semicolon separators, but an
    # if-arm and a while-body are each exactly ONE statement — so
    # every statement is emitted semicolon-free on its own lines, and
    # anything compound (a loop's init + while, a multi-statement arm)
    # is wrapped in its own begin/end to stay a single statement.
    def render_one(node, depth: int) -> list[str]:
        pad = "  " * (depth + 1)
        kind = node[0]
        if kind == "init":
            return [f"{pad}{node[1]} := {node[2]}"]
        if kind == "alu":
            _, op, dest, a, b = node
            return [f"{pad}{dest} := {a} {op} {b}"]
        if kind == "shift":
            _, direction, dest, src, count = node
            return [f"{pad}{dest} := {src} {direction} {count}"]
        if kind == "loop":
            _, counter, n, body = node
            inner = render_list(body, depth + 2)
            inner.append(f"{'  ' * (depth + 3)}{counter} := {counter} - 1")
            return [
                f"{pad}begin",
                f"{pad}  {counter} := {n}",
                f"{pad}  while {counter} <> 0 do",
                f"{pad}  begin",
                *inner,
                f"{pad}  end",
                f"{pad}end",
            ]
        if kind == "if":
            _, (a, relop, b), then_body, else_body = node
            out = [f"{pad}if {a} {relops.get(relop, relop)} {b} then"]
            out.extend(render_arm(then_body, depth + 1, a))
            if else_body is not None:
                out.append(f"{pad}else")
                out.extend(render_arm(else_body, depth + 1, a))
            out.append(f"{pad}fi")
            return out
        if kind == "foldall":
            out = [f"{pad}{acc} := 0"]
            out.extend(f"{pad}{acc} := {acc} xor {var}" for var in variables)
            return out
        raise AssertionError(f"unrenderable plan node {kind!r}")

    def render_list(nodes: list, depth: int) -> list[str]:
        lines: list[str] = []
        for node in nodes:
            lines.extend(render_one(node, depth))
        return lines

    def render_arm(nodes: list, depth: int, scratch: str) -> list[str]:
        pad = "  " * (depth + 1)
        if not nodes:
            return [f"{pad}{scratch} := {scratch}"]  # explicit no-op arm
        if len(nodes) == 1 and nodes[0][0] != "foldall":
            return render_one(nodes[0], depth)
        return [f"{pad}begin", *render_list(nodes, depth + 1), f"{pad}end"]

    source = (
        "program difftest;\n" + "\n".join(decls) + "\nbegin\n"
        + "\n".join(render_list(plan, 0)) + "\nend\n"
    )
    observe = dict(zip(variables + [acc], bind_vars + [bind_acc]))
    return GeneratedCase(
        lang="sstar", machine=machine.name, seed=0, source=source,
        observe=tuple(observe.values()), physical_observe=True,
    )


register_generator("yalll", generate_yalll)
register_generator("simpl", generate_simpl)
register_generator("mpl", generate_mpl)
register_generator("sstar", generate_sstar)


# ----------------------------------------------------------------------
# EMPL
# ----------------------------------------------------------------------
def generate_empl(
    machine: MicroArchitecture, rng: random.Random, *, size: int | None = None
) -> GeneratedCase:
    """An EMPL program over declared FIXED scalars (PL/I surface)."""
    _, alu, shifts = _machine_pools(machine)
    n_regs = len(machine.registers.allocatable(GPR))
    n_vars = min(3, max(2, n_regs - 5))
    variables = [f"V{i}" for i in range(n_vars)]
    counters = ["C0", "C1"]
    acc = "FOLD"
    memory_ok = _has_mem(machine)
    plan = _build_plan(
        rng, variables, counters,
        _Caps(shifts=bool(shifts), memory=memory_ok),
        alu, shifts, _size(rng, size),
    )
    uses_memory, has_stores = _plan_touches_memory(plan)
    ops = {"+": "+", "-": "-", "&": "&", "|": "|", "xor": "XOR"}

    lines: list[str] = []
    for name in variables + counters + [acc]:
        lines.append(f"DECLARE {name} FIXED;")
    if uses_memory:
        lines.append(f"DECLARE ARR({REGION_WORDS}) FIXED;")
    for name in counters + [acc]:
        lines.append(f"{name} = 0;")

    def emit(statement_list: list, depth: int) -> None:
        pad = "    " * depth
        for node in statement_list:
            kind = node[0]
            if kind == "init":
                lines.append(f"{pad}{node[1]} = {node[2]};")
            elif kind == "alu":
                _, op, dest, a, b = node
                lines.append(f"{pad}{dest} = {a} {ops[op]} {b};")
            elif kind == "shift":
                _, direction, dest, src, count = node
                lines.append(
                    f"{pad}{dest} = {src} {direction.upper()} {count};"
                )
            elif kind == "loop":
                _, counter, n, body = node
                lines.append(f"{pad}{counter} = {n};")
                lines.append(f"{pad}WHILE {counter} # 0 DO;")
                emit(body, depth + 1)
                lines.append(f"{pad}    {counter} = {counter} - 1;")
                lines.append(f"{pad}END;")
            elif kind == "if":
                _, (a, relop, b), then_body, else_body = node
                lines.append(f"{pad}IF {a} {relop} {b} THEN DO;")
                emit(then_body, depth + 1)
                lines.append(f"{pad}END;")
                if else_body is not None:
                    lines.append(f"{pad}ELSE DO;")
                    emit(else_body, depth + 1)
                    lines.append(f"{pad}END;")
            elif kind == "store":
                _, slot, var = node
                lines.append(f"{pad}ARR({slot}) = {var};")
            elif kind == "load":
                _, var, slot = node
                lines.append(f"{pad}{var} = ARR({slot});")
            elif kind == "foldall":
                for var in variables:
                    lines.append(f"{pad}{acc} = {acc} XOR {var};")

    emit(plan, 0)
    return GeneratedCase(
        lang="empl", machine=machine.name, seed=0,
        source="\n".join(lines) + "\n",
        observe=tuple(f"g_{name}" for name in variables + [acc]),
        physical_observe=False,
        memory={EMPL_BASE + i: (i * 31 + 5) & 0xFFFF
                for i in range(REGION_WORDS)} if uses_memory else {},
        mem_region=(EMPL_BASE, REGION_WORDS) if uses_memory else None,
        uses_memory=uses_memory, has_stores=has_stores,
    )


register_generator("empl", generate_empl)


# ----------------------------------------------------------------------
def generate_case(
    lang: str,
    machine: MicroArchitecture,
    seed: int,
    *,
    size: int | None = None,
) -> GeneratedCase:
    """Generate one case for ``lang`` on ``machine`` from ``seed``."""
    from repro.registry import get_generator

    rng = random.Random(seed)
    case = get_generator(lang)(machine, rng, size=size)
    return replace(case, seed=seed)
