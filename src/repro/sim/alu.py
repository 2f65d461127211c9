"""One ALU spec: the inlined micro-orders, described once.

The fast engines all derive their hot ALU arithmetic from
:data:`ALU_SPEC` — the decoded engine's step closures
(:func:`step_factory`), the lockstep lanes of :mod:`repro.sim.batch`
(which run those same closures on numpy lane vectors) and the trace
stitcher's generated source (:func:`render`).  Each entry is a set of
*branch-free* expression templates over operators Python ints and
numpy arrays share — ``(v == 0) * 1`` rather than ``int(v == 0)`` — so
one text serves scalar and vector engines alike.

Template fields: ``{a}``/``{b}`` are the operands, ``{t}`` the
carry-total, ``{v}`` the result value, ``{M}`` the word mask and
``{S}`` the sign-bit shift.  :func:`repro.sim.semantics.evaluate`
stays hand-written as the independent oracle the conformance tests
hold every engine to.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple


class AluOp(NamedTuple):
    """One inlined op: its carry-total, result and the flags it sets."""

    total: str
    value: str = "{t}"
    flags: str = ""
    #: False for ops that only set flags (``cmp``).
    writes: bool = True


_SUB = "({a} & {M}) + (({b} ^ {M}) & {M}) + 1"

ALU_SPEC: dict[str, AluOp] = {
    "mov": AluOp("{a} & {M}"),
    "add": AluOp("({a} & {M}) + ({b} & {M})", "{t} & {M}", "ZNC"),
    "sub": AluOp(_SUB, "{t} & {M}", "ZNC"),
    "cmp": AluOp(_SUB, "{t} & {M}", "ZNC", writes=False),
    "inc": AluOp("({a} & {M}) + 1", "{t} & {M}", "ZNC"),
    # a - 1 in two's complement: adding the mask carries out unless a == 0.
    "dec": AluOp("({a} & {M}) + {M}", "{t} & {M}", "ZNC"),
    "and": AluOp("({a} & {M}) & ({b} & {M})", flags="ZN"),
    "or": AluOp("({a} & {M}) | ({b} & {M})", flags="ZN"),
    "xor": AluOp("({a} & {M}) ^ ({b} & {M})", flags="ZN"),
}
ALU_SPEC["movi"] = ALU_SPEC["mov"]

FLAG_SPEC = {
    "Z": "({v} == 0) * 1",
    "N": "({v} >> {S}) & 1",
    "C": "({t} > {M}) * 1",
}


def render(name: str, a: str, b: str, t: str, v: str, M, S, plant: int = 0
           ) -> tuple[list[str], str, dict[str, str]]:
    """Source for one op: ``(statements, value name, {flag: expr})``.

    The statements bind the carry-total to ``t`` and, when it differs
    from the total, the result to ``v``; the returned value name is
    whichever holds the result.  A non-zero ``plant`` XORs the result
    before the flags see it (a self-check hook; see
    :func:`step_factory`).
    """
    spec = ALU_SPEC[name]
    lines = [f"{t} = {spec.total.format(a=a, b=b, M=M)}"]
    value = spec.value.format(t=t, M=M)
    if plant:
        value = f"({value}) ^ {plant}"
    if value != t:
        lines.append(f"{v} = {value}")
    else:
        v = t
    flags = {
        flag: FLAG_SPEC[flag].format(t=t, v=v, M=M, S=S)
        for flag in spec.flags
    }
    return lines, v, flags


@cache
def step_factory(name: str, plant: int = 0):
    """``make(read_a, read_b, target, mask, M, S) -> step`` for one op.

    The step has the decoded engine's signature
    ``step(state, reg_writes, flag_writes, memory_ops)`` and works on
    any state whose readers return ints or lane vectors.  Built (one
    ``compile()``) once per op and process.  ``plant`` XORs the result
    before it commits or sets flags — the difftest self-check's
    decoded-engine hook; 0 in normal operation.
    """
    lines, v, flags = render(
        name, "read_a(state)", "read_b(state)", "t", "v", "M", "S", plant
    )
    if ALU_SPEC[name].writes:
        lines.append(f"reg_writes.append((target, mask, {v}))")
    lines += [f"flag_writes[{flag!r}] = {expr}"
              for flag, expr in flags.items()]
    source = "\n".join([
        "def make(read_a, read_b, target, mask, M, S):",
        "    def step(state, reg_writes, flag_writes, memory_ops):",
        *(f"        {line}" for line in lines),
        "    return step",
    ])
    namespace: dict = {}
    exec(compile(source, f"<alu {name}>", "exec"), namespace)
    return namespace["make"]
