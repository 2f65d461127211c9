"""Workload ``compile-cold``: the compiler and its content-addressed cache.

The inputs are frozen in ``corpus/compile_corpus.json`` (written by
``freeze_corpus.py``): generated programs for every language and every
machine its generator supports, the six YALLL corpus programs on all
six machines, and the four-language multiply example.  Each round
compiles every one of them, in an order drawn from the seed, three
times:

1. through a fresh ``CompileCache`` with a new disk tier (miss + store),
2. through a new cache on the same directory (disk hit),
3. through that cache again (memory hit).

Each program is compiled cold once a round, four or more times a run;
the gated throughput and latency take the mean of each program's
faster half of cold compiles, which keeps the host's slow spells
(seconds long, up to 1.5x slower) out of them while any slowdown of
the compiler moves them in full.  Over ten runs in a row this spread
less than the fastest compile, which rests on one sample per program,
or the mean over every compile, which takes the spells in.  Both are
then scaled by the host's speed over the window
(``harness.HostSpeed``), which removes the drift between runs.

One decoded execution per program checks the compiled code against
an independent answer; beyond that the simulator does no work here.
A few cold ``python -m repro compile`` subprocesses measure the CLI.
"""

from __future__ import annotations

import json
import random
import shutil
import time

import harness
from harness import Spans, execute, peek, physical
import references as ref

CORPUS_FILE = harness.BENCH_DIR / "corpus" / "compile_corpus.json"
SETUP_REPEATS = 5
STAGES = ("parse", "sema", "codegen", "legalize", "restart", "regalloc",
          "compose", "assemble")
LANGS = ("yalll", "simpl", "empl", "sstar", "mpl")
#: The program every cold ``python -m repro compile`` sample compiles:
#: one fixed command, so its samples are comparable from run to run and
#: seed to seed.
CLI_PROGRAM = "example:empl:HM1"


def observe(machine, result, entry: dict, *, engine: str) -> dict:
    """Semantic outcome of one run of a frozen program: exit value,
    observed variables and the data region (plus a memory reader)."""
    simulator, run = execute(
        machine, result, engine=engine, inputs=entry.get("inputs", {}),
        memory={int(a): v for a, v in entry.get("memory", {}).items()},
        spans=Spans(False),
    )
    state = simulator.state
    observed = {}
    for name in entry.get("observe", ()):
        if entry.get("physical_observe"):
            observed[name] = state.read_reg(name)
            continue
        place = physical(result, machine, name)
        known = (name in result.allocation.mapping
                 or name in result.allocation.spilled_slots)
        observed[name] = peek(state, place) if known else None
    region = entry.get("mem_region")
    memory = list(state.memory.dump_words(*region)) if region else None
    return {"exit_value": run.exit_value, "observed": observed,
            "memory": memory, "reader": state.memory.read}


def expected(entry: dict, rng: random.Random) -> tuple[dict, dict]:
    """(inputs for the run, what it must produce) for one frozen entry."""
    if entry["kind"] == "generated":
        return entry, entry["expect"]
    if entry["kind"] == "example":
        a, n = rng.randint(2, 40), rng.randint(2, 40)
        inputs = {k: {"a": a, "n": n}[v] for k, v in entry["inputs"].items()}
        if not inputs:
            a, n = 6, 7  # EMPL's example carries its operands as constants
        if entry["result"] == "exit":
            return {"inputs": inputs}, {"exit_value": ref.mul(a, n)}
        return ({"inputs": inputs, "observe": [entry["result"]],
                 "physical_observe": entry["lang"] in ("simpl", "sstar")},
                {"observed": {entry["result"]: ref.mul(a, n)}})
    case = ref.corpus_case(entry["name"], rng)
    return ({"inputs": case.inputs, "memory": case.memory},
            {"exit_value": case.exit_value, "memory_words":
             case.memory_expect})


def matches(outcome: dict, expect: dict) -> bool:
    for key in ("exit_value", "memory"):
        if key in expect and outcome[key] != expect[key]:
            return False
    for name, value in expect.get("observed", {}).items():
        if outcome["observed"].get(name) != value:
            return False
    for address, value in expect.get("memory_words", {}).items():
        if outcome["reader"](int(address)) != value:
            return False
    return True


def set_up(spans: Spans) -> dict:
    from repro.registry import build_machine, get_language, machine_names

    corpus = json.loads(CORPUS_FILE.read_text())
    machines = {}
    for name in machine_names():
        with spans.span("build_machine", "machine"):
            machines[name] = build_machine(name)
    # Warm every front end once so lazy imports are not billed to the
    # first timed compile.
    for entry in corpus["programs"]:
        if entry["kind"] == "example":
            get_language(entry["lang"]).compile(
                entry["source"], machines[entry["machine"]])
    return {"corpus": corpus, "machines": machines}


def draw_rounds(corpus: dict, seed: int, rounds: int) -> list[list[tuple]]:
    """Every round compiles the whole frozen corpus in a seed-drawn order,
    each program with the seed of the random stream that draws its
    run's inputs.  Compile costs differ by 100x between programs, so a
    seed-drawn subset would change the work from seed to seed."""
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        chosen = list(corpus["programs"])
        rng.shuffle(chosen)
        plan.append([(entry, rng.randrange(1 << 30)) for entry in chosen])
    return plan


class Counts:
    def __init__(self) -> None:
        self.mir_ops = 0
        self.words = 0


def compile_traced(spec, source, machine, cache, spans: Spans):
    """A cache miss + store, decomposed into the public calls it makes."""
    from repro.cache import compile_key, machine_fingerprint
    from repro.pipeline.core import CompileContext

    pipeline = spec.pipeline
    options = dict(pipeline.option_defaults)
    with spans.span("machine_fingerprint", "cache"):
        machine_fingerprint(machine)
    with spans.span("compile_key", "cache"):
        key = compile_key(source, spec.name, machine,
                          pipeline.cache_options(options))
    with spans.span("CompileCache.get", "cache"):
        hit = cache.get(key)
    ctx = CompileContext(source=source, lang=spec.name, machine=machine,
                         options=options)
    with spans.span(f"compile.{spec.name}", "compile"):
        for stage in pipeline.stages:
            with spans.span(f"stage.{stage.name}", "compile"):
                stage.run(ctx)
        result = pipeline.result_factory(ctx)
    with spans.span("CompileCache.put", "cache"):
        cache.put(key, result)
    return result, hit


def compile_round(ctx, plan, spans, ledger, counts, stats, trace,
                  host) -> None:
    from repro.cache import CompileCache
    from repro.registry import get_language

    for entry, input_seed in plan:
        host.tick()
        rng = random.Random(input_seed)
        spans.new_op()
        machine = ctx["machines"][entry["machine"]]
        spec = get_language(entry["lang"])
        source = entry["source"]
        disk = harness.WORK_DIR / f"cache{stats['rounds']}"
        first = CompileCache(disk_dir=disk)
        start = time.perf_counter()
        if trace:
            cold, hit = compile_traced(spec, source, machine, first, spans)
            ledger.check(hit is None, f"cold probe hit {entry['id']}")
        else:
            cold = spec.compile(source, machine, cache=first)
        elapsed = time.perf_counter() - start
        stats["cold"].append(elapsed)
        stats["by_program"].setdefault(entry["id"], []).append(elapsed)
        second = CompileCache(disk_dir=disk)
        start = time.perf_counter()
        with spans.span("CompileCache.get_or_compile", "cache"):
            warm = spec.compile(source, machine, cache=second)
        stats["disk_hit"].append(time.perf_counter() - start)
        start = time.perf_counter()
        with spans.span("CompileCache.get_or_compile", "cache"):
            hot = spec.compile(source, machine, cache=second)
        stats["mem_hit"].append(time.perf_counter() - start)
        stats["probes"] += 2
        stats["hits"] += second.stats.hits
        words = [w.word for w in cold.loaded.words]
        ledger.check(
            second.stats.disk_hits == 1 and second.stats.hits == 2
            and [w.word for w in warm.loaded.words] == words
            and hot is warm,
            f"cache tiers disagree on {entry['id']}")
        counts.mir_ops += cold.mir.n_ops() if cold.mir is not None else 0
        counts.words += len(words)
        run_input, expect = expected(entry, rng)
        outcome = observe(machine, cold, run_input, engine="decoded")
        ledger.check(matches(outcome, expect),
                     f"wrong result from {entry['id']}")
        stats["programs"] += 1
        shutil.rmtree(disk, ignore_errors=True)
    stats["rounds"] += 1


def run(seed: int, seconds: float, trace: bool) -> int:
    from repro.registry import get_language

    spans = Spans(trace)
    ledger = harness.Ledger()
    setup_times = []
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        start = time.perf_counter()
        ctx = set_up(spans)
        setup_times.append(time.perf_counter() - start)
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)

    entry = next(e for e in ctx["corpus"]["programs"]
                 if e["id"] == CLI_PROGRAM)
    path = harness.WORK_DIR / "cli.src"
    path.write_text(entry["source"])
    words = len(get_language(entry["lang"]).compile(
        entry["source"], ctx["machines"][entry["machine"]]).loaded)

    cli = harness.ColdCli(lambda: harness.cli_cold(
        ["compile", str(path), "--lang", entry["lang"], "--machine",
         entry["machine"]],
        f" on {entry['machine']}: {words} words x", ledger))
    cli.take(harness.CLI_SAMPLES // 2)

    plan = draw_rounds(ctx["corpus"], seed, rounds=16)
    stats = dict(cold=[], by_program={}, disk_hit=[], mem_hit=[], probes=0,
                 hits=0, programs=0, rounds=0)
    first = Counts()
    host = harness.HostSpeed()
    window = harness.Deadline(seconds)
    while stats["rounds"] == 0 or not window.expired():
        counts = Counts() if stats["rounds"] else first
        compile_round(ctx, plan[stats["rounds"] % len(plan)], spans, ledger,
                      counts, stats, trace, host)

    cold_ms = [t * 1e3 for t in stats["cold"]]
    typical_ms = [harness.fast_half_mean(times) * 1e3
                  for times in stats["by_program"].values()]
    rate = len(typical_ms) * 1e3 / sum(typical_ms)
    p50_ms = harness.median(typical_ms)
    speed = host.speed()
    layers = {}
    if trace:
        layers = _layers(ctx, spans, stats, first, get_language)
    cli.take(harness.CLI_SAMPLES // 2)
    # The rest of the set-ups run after the window, for the same reason
    # as the CLI samples.
    for _ in range(SETUP_REPEATS // 2):
        start = time.perf_counter()
        set_up(Spans(False))
        setup_times.append(time.perf_counter() - start)
    end_to_end = harness.end_to_end(
        setup_times=setup_times, ledger=ledger,
        throughput=rate / speed, latency_ms=p50_ms * speed, cli=cli)
    named = {
        "compile_progs_per_s": (rate, "1/s"),
        "compile_p50_ms": (p50_ms, "ms"),
        "compile_mean_progs_per_s": (len(cold_ms) / sum(stats["cold"]),
                                     "1/s"),
        "compile_p90_ms": (harness.percentile(cold_ms, 90), "ms"),
        "compile_p99_ms": (harness.percentile(cold_ms, 99), "ms"),
        "compile_samples": (len(cold_ms), "count"),
        **cli.named(),
        "fail_ratio": (ledger.failed / max(1, ledger.attempted), "ratio"),
        "host_speed": (speed, "ratio"),
        "rounds": (stats["rounds"], "count"),
    }
    exact = {"compile.mir_ops": first.mir_ops, "compile.words": first.words}
    for item in ctx["corpus"]["refused"]:
        print(f"refused today: {item['lang']} on {item['machine']}: "
              f"{item['error']}")
    return harness.emit(
        workload="compile-cold", seed=seed, trace=trace, ledger=ledger,
        end_to_end=end_to_end, named=named, layers=layers, exact=exact,
        spans=spans,
        notes={"cold_ms": cold_ms, "host_samples": host.samples,
               "latency": "median over programs of the mean of each "
                          "one's faster half of cold compiles (fresh "
                          "cache, miss + disk store), times host_speed",
               "throughput": "programs per second of the sum of each "
                             "one's faster-half mean cold compile, "
                             "divided by host_speed",
               "refused_pairs": ctx["corpus"]["refused"]},
    )


def _layers(ctx, spans, stats, first, get_language) -> dict:
    from repro.registry import build_machine

    ms = lambda name: (harness.mean(spans.durations(name)) * 1e3, "ms")
    import_s, numpy_loaded = harness.cli_import_probe()
    build = []
    for name in ctx["machines"]:
        start = time.perf_counter()
        build_machine(name)
        build.append(time.perf_counter() - start)
    layers = {
        "cli.import_s": (import_s, "s"),
        "cli.numpy_imported": (numpy_loaded, "count"),
        "machine.build_ms": (harness.mean(build) * 1e3, "ms"),
        "cache.fingerprint_ms": ms("machine_fingerprint"),
        "cache.key_ms": ms("compile_key"),
        "cache.mem_hit_ms": (harness.median(stats["mem_hit"]) * 1e3, "ms"),
        "cache.disk_hit_ms": (harness.median(stats["disk_hit"]) * 1e3, "ms"),
        "cache.store_ms": ms("CompileCache.put"),
        "cache.hit_ratio": (stats["hits"] / max(1, stats["probes"] +
                                                 stats["programs"]), "ratio"),
        "compile.mir_ops": (first.mir_ops, "count"),
        "compile.words": (first.words, "count"),
    }
    for stage in STAGES:
        layers[f"compile.{stage}_ms"] = ms(f"stage.{stage}")
    for lang in LANGS:
        layers[f"compile.{lang}_ms"] = ms(f"compile.{lang}")
    layers.update(harness.trace_layers(spans))
    return layers
