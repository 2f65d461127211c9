"""Independent output references, written without the toolkit.

Nothing here imports ``repro``: M1 macro programs are encoded and
evaluated by a plain Python M1 machine, and the six corpus programs
of ``repro.bench.programs`` have Python twins.  Every simulated result
the benchmark sees is compared against these; a mismatch is a failed
operation.
"""

from __future__ import annotations

import random

MASK16 = 0xFFFF

# ----------------------------------------------------------------------
# M1: the 16-bit accumulator macro-ISA interpreted by the YALLL
# microprogram in repro.bench.macrosys.
# ----------------------------------------------------------------------
HALT, LDA, STA, LDI, ADD, SUB, AND, JMP, JZ = range(9)
#: Where M1 programs load; operands are absolute 12-bit addresses.
M1_BASE = 0x100


def m1_word(opcode: int, operand: int = 0) -> int:
    return (opcode << 12) | (operand & 0xFFF)


def m1_evaluate(memory: dict[int, int], entry: int,
                limit: int = 1_000_000) -> tuple[int, dict[int, int], int]:
    """Run an M1 program; returns (acc at HALT, final memory, steps)."""
    memory = dict(memory)
    acc = 0
    pc = entry
    for steps in range(1, limit + 1):
        word = memory.get(pc, 0)
        pc = (pc + 1) & MASK16
        opcode, arg = word >> 12, word & 0xFFF
        if opcode == LDA:
            acc = memory.get(arg, 0)
        elif opcode == STA:
            memory[arg] = acc
        elif opcode == LDI:
            acc = arg
        elif opcode == ADD:
            acc = (acc + memory.get(arg, 0)) & MASK16
        elif opcode == SUB:
            acc = (acc - memory.get(arg, 0)) & MASK16
        elif opcode == AND:
            acc &= memory.get(arg, 0)
        elif opcode == JMP:
            pc = arg
        elif opcode == JZ:
            if acc == 0:
                pc = arg
        else:
            return acc, memory, steps
    raise RuntimeError("M1 reference exceeded its step limit")


class M1Program:
    """A counted M1 loop with a branch-free body over four variables.

    Layout from ``M1_BASE``: the loop, the epilogue, then the data
    words ``cnt``, ``one`` and ``v0..v3``.  Per-lane variants change
    only data words, so lanes agree on every branch except the loop
    exit, whose iteration count comes from ``cnt``.
    """

    def __init__(self, rng: random.Random, iterations: int,
                 body: int = 5) -> None:
        body_ops = [rng.choice((LDA, ADD, SUB, AND, STA, ADD, SUB))
                    for _ in range(body)]
        body_vars = [rng.randrange(4) for _ in body_ops]
        n_code = 4 + len(body_ops) + 1 + 3
        cnt = M1_BASE + n_code
        one = cnt + 1
        var = [one + 1 + i for i in range(4)]
        done = M1_BASE + 4 + len(body_ops) + 1
        code = [m1_word(LDA, cnt), m1_word(JZ, done), m1_word(SUB, one),
                m1_word(STA, cnt)]
        code += [m1_word(op, var[v]) for op, v in zip(body_ops, body_vars)]
        code.append(m1_word(JMP, M1_BASE))
        code += [m1_word(LDA, var[0]), m1_word(ADD, var[1]), m1_word(HALT)]
        assert len(code) == n_code
        self.code = code
        self.cnt = cnt
        self.one = one
        self.var = var
        self.iterations = iterations
        self.data = [rng.randrange(1 << 16) for _ in range(4)]

    def memory(self, iterations: int | None = None,
               data: list[int] | None = None) -> dict[int, int]:
        image = {M1_BASE + i: word for i, word in enumerate(self.code)}
        image[self.cnt] = self.iterations if iterations is None \
            else iterations
        image[self.one] = 1
        for address, value in zip(self.var, data or self.data):
            image[address] = value
        return image

    def region(self) -> tuple[int, int]:
        """(base, length) of the data words to compare after a run."""
        return self.cnt, 6


# ----------------------------------------------------------------------
# The six corpus programs (repro.bench.programs.CORPUS)
# ----------------------------------------------------------------------
def translit(mem: dict[int, int], s: int, tbl: int) -> dict[int, int]:
    mem = dict(mem)
    while mem.get(s, 0) != 0:
        mem[s] = mem.get((mem[s] + tbl) & MASK16, 0)
        s += 1
    return mem


def memcpy(mem, src: int, dst: int, n: int) -> dict[int, int]:
    mem = dict(mem)
    for i in range(n):
        mem[dst + i] = mem.get(src + i, 0)
    return mem


def checksum(mem, base: int, n: int) -> int:
    total = 0
    for i in range(n):
        total ^= mem.get(base + i, 0)
    return total


def bitcount(x: int) -> int:
    return bin(x & MASK16).count("1")


def strcmp(mem, a: int, b: int) -> int:
    while True:
        ca, cb = mem.get(a, 0), mem.get(b, 0)
        if ca != cb:
            return 1
        if ca == 0:
            return 0
        a += 1
        b += 1


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (a + b) & MASK16
    return a


def mul(a: int, n: int) -> int:
    return (a * n) & MASK16


class CorpusCase:
    """One seeded input for a corpus program, with its expected result.

    ``exit_value`` is the expected EXIT value (None when the program
    exits without one); ``memory_expect`` maps addresses to the words
    they must hold afterwards.
    """

    def __init__(self, name, inputs, memory, exit_value, memory_expect):
        self.name = name
        self.inputs = inputs
        self.memory = memory
        self.exit_value = exit_value
        self.memory_expect = memory_expect


def _string(rng, length: int, alphabet: int = 60) -> list[int]:
    return [rng.randint(1, alphabet) for _ in range(length)] + [0]


def corpus_case(name: str, rng: random.Random) -> CorpusCase:
    """Draw one input for corpus program ``name`` and compute its answer.

    Sizes are fixed and only the data is drawn, so every seed asks for
    the same amount of work."""
    a_base, b_base = 0x200, 0x300
    if name == "translit":
        text = _string(rng, 24)
        table = {b_base + c: rng.randint(1, 255) for c in range(1, 61)}
        mem = {a_base + i: c for i, c in enumerate(text)}
        mem.update(table)
        after = translit(mem, a_base, b_base)
        expect = {a_base + i: after[a_base + i] for i in range(len(text))}
        return CorpusCase(name, {"str": a_base, "tbl": b_base}, mem, None,
                          expect)
    if name == "memcpy":
        n = 24
        mem = {a_base + i: rng.randrange(1 << 16) for i in range(n)}
        after = memcpy(mem, a_base, b_base, n)
        expect = {b_base + i: after[b_base + i] for i in range(n)}
        return CorpusCase(name, {"src": a_base, "dst": b_base, "n": n}, mem,
                          None, expect)
    if name == "checksum":
        n = 24
        mem = {a_base + i: rng.randrange(1 << 16) for i in range(n)}
        return CorpusCase(name, {"base": a_base, "n": n}, mem,
                          checksum(mem, a_base, n), {})
    if name == "bitcount":
        x = rng.randrange(1 << 15, 1 << 16)  # always 16 loop trips
        return CorpusCase(name, {"x": x}, {}, bitcount(x), {})
    if name == "strcmp":
        text = _string(rng, 16)
        other = list(text)
        if rng.random() < 0.5:
            other[-2] ^= 0x40  # differ at the last character
        mem = {a_base + i: c for i, c in enumerate(text)}
        mem.update({b_base + i: c for i, c in enumerate(other)})
        return CorpusCase(name, {"a": a_base, "b": b_base}, mem,
                          strcmp(mem, a_base, b_base), {})
    if name == "fib":
        n = rng.randint(22, 24)
        return CorpusCase(name, {"n": n}, {}, fib(n), {})
    raise KeyError(name)


CORPUS_NAMES = ("translit", "memcpy", "checksum", "bitcount", "strcmp", "fib")

#: A counted multiply loop in YALLL (the survey's running example);
#: exits with ``a * n``.
MUL_SOURCE = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""
