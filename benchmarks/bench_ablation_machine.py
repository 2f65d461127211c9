"""Ablations over the machine-description design choices (DESIGN.md §5).

HM1's headline features — the 3-phase microcycle with chaining and the
dual move paths — are exactly what makes S*'s ``cocycle`` expressible
and what the composition algorithms exploit.  These ablations disable
each feature on a variant derived from HM1 (``machine.derive``, which
gives each variant its own fingerprint) and measure the compaction
loss on the benchmark corpus, plus memory latency's effect on runtime.
"""

from __future__ import annotations

import dataclasses

from repro.bench import CORPUS, compile_program, render_table, run_program
from repro.compose import ListScheduler, compose_program
from repro.machine.machines import build_hm1
from repro.machine.opspec import OperationTable


def no_chaining_hm1():
    return build_hm1().derive(
        name="HM1-nochain", allows_phase_chaining=False
    )


def single_move_path_hm1():
    machine = build_hm1()
    # Retarget the B move path onto the A fields: every mov now fights
    # for one selector pair, as on a single-bus machine.
    specs = [
        dataclasses.replace(
            spec, unit="mova",
            settings=(("a_src", "$src0"), ("a_dst", "$dest")),
        ) if spec.name == "mov" and spec.variant == "b" else spec
        for spec in machine.ops
    ]
    return machine.derive(name="HM1-onebus", ops=OperationTable.of(specs))


def corpus_words(machine):
    total = 0
    for name in CORPUS:
        result = compile_program(name, machine)
        composed = compose_program(result.mir, machine, ListScheduler())
        total += composed.n_instructions()
    return total


def test_ablation_chaining_and_buses(benchmark, report):
    baseline = benchmark(corpus_words, build_hm1())
    nochain = corpus_words(no_chaining_hm1())
    onebus = corpus_words(single_move_path_hm1())
    report(render_table(
        ["machine variant", "corpus control words", "vs baseline"],
        [
            ["HM1 (3 phases, chaining, 2 move paths)", baseline, "1.00"],
            ["HM1 without phase chaining", nochain,
             f"{nochain / baseline:.2f}"],
            ["HM1 with a single move path", onebus,
             f"{onebus / baseline:.2f}"],
        ],
        title="Ablation: what HM1's datapath features buy the composers",
    ))
    assert nochain >= baseline
    assert onebus >= baseline
    assert nochain > baseline  # chaining is what makes HM1 horizontal


def test_ablation_memory_latency(benchmark, report):
    """Memory latency dominates loop runtimes: the survey's machines
    kept heavily used values in registers for exactly this reason."""
    inputs = {"base": 500, "n": 8}
    memory = {500 + i: i * 3 for i in range(8)}

    def cycles_at(latency):
        base = build_hm1()
        machine = base.derive(
            name=f"HM1-mem{latency}",
            units={**base.units, "mem": dataclasses.replace(
                base.units["mem"], latency=latency)},
        )
        run = run_program("checksum", machine, dict(inputs),
                          memory=dict(memory))
        assert run.run_result.exit_value is not None
        return run.run_result.cycles

    rows = [[latency, cycles_at(latency)] for latency in (1, 2, 4, 8)]
    benchmark(cycles_at, 2)
    report(render_table(
        ["memory latency (cycles)", "checksum runtime (cycles)"],
        rows,
        title="Ablation: main-memory latency vs loop runtime (HM1)",
    ))
    runtimes = [row[1] for row in rows]
    assert runtimes == sorted(runtimes)
    assert runtimes[-1] > runtimes[0]
