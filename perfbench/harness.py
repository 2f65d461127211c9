"""Shared machinery for the benchmark workloads.

Everything here stays outside the toolkit: timing is taken around
calls into ``repro``'s public functions, spans are recorded by the
benchmark's own code, and results are assembled into the one-line
JSON the benchmark prints last.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space inside the checkout (temp cache tiers, CLI inputs),
#: one per process so concurrent runs cannot delete each other's files.
WORK_DIR = BENCH_DIR / ".work" / str(os.getpid())
#: Full result records (provenance, named metrics, exact counts).
RESULTS_DIR = BENCH_DIR / "results"

#: Counts that depend only on the seed and the simulated/compiled
#: behaviour.  A change that only makes the toolkit faster must leave
#: every one of them identical (``run.py --diff A B`` checks this).
EXACT_COUNTS = (
    "sim.instructions",
    "sim.cycles",
    "sim.decode.misses",
    "sim.trace.compiles",
    "sim.batch.peeled",
    "compile.mir_ops",
    "compile.words",
)


#: The per-layer catalogue every traced run reports, name -> unit.  A
#: layer a workload does not exercise reports 0.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.numpy_imported": "count",
    "machine.build_ms": "ms",
    "cache.fingerprint_ms": "ms",
    "cache.key_ms": "ms",
    "cache.mem_hit_ms": "ms",
    "cache.disk_hit_ms": "ms",
    "cache.store_ms": "ms",
    "cache.hit_ratio": "ratio",
    **{f"compile.{stage}_ms": "ms" for stage in (
        "parse", "sema", "codegen", "legalize", "restart", "regalloc",
        "compose", "assemble")},
    **{f"compile.{lang}_ms": "ms" for lang in (
        "yalll", "simpl", "empl", "sstar", "mpl")},
    "compile.mir_ops": "count",
    "compile.words": "count",
    "asm.load_ms": "ms",
    "sim.init_ms": "ms",
    "sim.instructions": "count",
    "sim.cycles": "count",
    "sim.decode.misses": "count",
    "sim.decode.hit_ratio": "ratio",
    "sim.trace.compiles": "count",
    "sim.trace.enters": "count",
    "sim.trace.bailouts": "count",
    "sim.trace.bailout_ratio": "ratio",
    "sim.batch.lanes": "count",
    "sim.batch.peeled": "count",
    "sim.batch.useful_ratio": "ratio",
    "faults.golden_s": "s",
    "faults.scenario_s": "s",
    "faults.scenarios": "count",
    "faults.plan_invalidations": "count",
    "serve.job_key_ms": "ms",
    "serve.dedup_key_ms": "ms",
    "serve.group_key_ms": "ms",
    "serve.execute_job_ms": "ms",
    "serve.pickle_ms": "ms",
    "serve.pickle_bytes": "bytes",
    "serve.render_ms": "ms",
    "serve.unaccounted_ms": "ms",
    "serve.batch_lanes_per_flush": "count",
    "serve.dedup": "count",
    "serve.shed": "count",
    "serve.crashes": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    **{f"self_s.{layer}": "s" for layer in (
        "machine", "cache", "compile", "asm", "sim", "faults", "serve",
        "http")},
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder; written out once, when the run ends.

    Each span carries a name, its layer, start and end (seconds from
    ``perf_counter``), the id of the enclosing span and the id of the
    operation it belongs to.  Disabled, :meth:`span` yields at once
    and records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[tuple] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[index] = (name, layer, start, end, parent, self._op)

    def record(self, name: str, layer: str, start: float, end: float,
               op: int) -> None:
        """Add a finished top-level span (safe to call from any thread)."""
        if self.enabled:
            self.records.append((name, layer, start, end, -1, op))

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [r[3] - r[2] for r in self.records if r[0] == name]

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer, each span minus the time its children cover."""
        child_time = [0.0] * len(self.records)
        for name, layer, start, end, parent, _op in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (_n, layer, start, end, _p, _o) in enumerate(self.records):
            totals[layer] = totals.get(layer, 0.0) + (
                end - start - child_time[index]
            )
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, layer, start, end, parent, op) in enumerate(
                self.records
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent, "op": op,
                }) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    spans = Spans(True)
    start = time.perf_counter()
    for _ in range(samples):
        with spans.span("calibrate", "bench"):
            pass
    return (time.perf_counter() - start) / samples


# ----------------------------------------------------------------------
# Statistics and bookkeeping
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def fast_half_mean(values) -> float:
    """Mean of the faster half of ``values``.

    It moves when at least half of the samples slow down, while the
    slower half, where the host's slow spells land, stays out of it.
    """
    ordered = sorted(values)
    return mean(ordered[:max(1, len(ordered) // 2)])


class Ledger:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def live_children_peak_kb() -> int:
    """Sum of the peak resident memory (VmHWM) of every running child
    of this process, in KiB.  Call it while they are still alive:
    serve workers, for example, just before the service stops."""
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            status = Path(f"/proc/{entry}/status").read_text()
        except OSError:
            continue  # ended while we looked
        fields = dict(line.split(":", 1) for line in status.splitlines()
                      if ":" in line)
        if (int(fields.get("PPid", "0")) == os.getpid()
                and "VmHWM" in fields):
            total += int(fields["VmHWM"].split()[0])
    return total


def peak_rss_mb(live_children_kb: int = 0) -> float:
    """Peak resident memory of this process plus its children.

    Children that ran side by side (serve workers) count with the sum
    of their peaks, sampled by :func:`live_children_peak_kb` while they
    ran; children that ran one at a time (CLI subprocesses) count with
    the largest one.  The larger of the two is added to this process's
    own peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max(reaped, live_children_kb)) / 1024.0


def provenance(seed: int, workload: str, trace: bool) -> dict:
    """What the numbers depend on besides the code under test."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.sim.batch import HAVE_NUMPY, resolve_backend
    from repro.serve.config import ServeConfig
    import dataclasses

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "batch_backend": resolve_backend("auto") if HAVE_NUMPY else "python",
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "serve_config": dataclasses.asdict(ServeConfig()),
    }


try:
    from re import _compiler as _re_compiler, _parser as _re_parser
except ImportError:  # Python before 3.11
    import sre_compile as _re_compiler
    import sre_parse as _re_parser

#: What the host-speed probe compiles (see :class:`HostSpeed`).
PROBE_PATTERNS = (
    r"(?P<word>[A-Za-z_]\w*)\s*(?:=|:=)\s*(?P<val>-?\d+|0x[0-9a-f]+)",
    r"^\s*(\w+):\s*(.*?)(?:;.*)?$",
    r"(a|b|c)*d[^xyz]{2,5}(?=q)",
    r"\b(?:if|then|else|goto|call)\b",
) * 4


def host_work() -> None:
    """Parse and generate code for :data:`PROBE_PATTERNS` with the
    standard library's pure-Python regular-expression compiler,
    bypassing its cache: parsing and code generation over small
    objects, the kind of work the toolkit's compilers and simulators
    do, and none of the toolkit's code."""
    for pattern in PROBE_PATTERNS:
        _re_compiler._code(_re_parser.parse(pattern, 0), 0)


class HostSpeed:
    """How fast the host runs during the measuring window, against the
    host the benchmark was tuned on.

    The tuning host (2-vCPU x86-64, Python 3.11, shared) drifts between
    speeds up to 1.5x apart over minutes, and every phase of a run
    moves with it, so best-of timings inside one run cannot remove it:
    over ten runs in a row the sim throughput spread 0.33 (IQR /
    median).  The workloads call :meth:`tick` between items all through
    the window; the probe (:func:`host_work`) tracked the toolkit's own
    compile and simulate times over 20-second windows with correlation
    0.91-0.95.  :meth:`speed` is the probe's reference time over the
    mean of its faster half of samples here (the statistic the
    workloads' own timings use); the workloads divide their rates, and
    ``compile-cold`` multiplies its latency, by it.  The probe runs
    with the garbage collector off, so the toolkit's heap cannot slow
    it; no change to the toolkit moves it, so a slower toolkit moves
    the scaled figures in full.
    """

    #: Faster-half mean of :func:`host_work` on the tuning host (median
    #: over ten runs).
    REFERENCE_S = 0.00232
    #: Least time between two samples.
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        if time.perf_counter() < self._next:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            host_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self._next = time.perf_counter() + self.INTERVAL_S

    def speed(self) -> float:
        """1 on the tuning host at its usual speed, below 1 while the
        host runs slower."""
        return self.REFERENCE_S / fast_half_mean(self.samples)


class Deadline:
    """A measuring window of ``seconds`` starting now."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.end


def emit(*, workload: str, seed: int, trace: bool, ledger: Ledger,
         end_to_end: dict, named: dict, layers: dict, exact: dict,
         spans: Spans, notes: dict | None = None) -> int:
    """Print the metric table, save the full record, print the JSON line.

    ``end_to_end`` and ``layers`` map metric name to ``(value, unit)``;
    ``named`` holds the workload's own headline metrics, printed and
    saved beside the generic ones.  Returns the process exit code.
    """
    if trace:
        layers = {name: layers.get(name, (0, unit))
                  for name, unit in LAYER_METRICS.items()}
    metrics = layers if trace else end_to_end
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}")
    for title, table in (("end to end", end_to_end), ("workload", named),
                         ("per layer", layers if trace else {})):
        if table:
            print(f"## {title}")
            for name, (value, unit) in table.items():
                print(f"  {name:36s} {value:16.6g} {unit}")
    if exact:
        print("## exact counts")
        for name, value in exact.items():
            print(f"  {name:36s} {value:16d}")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    record = {
        "provenance": provenance(seed, workload, trace),
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in layers.items()},
        "exact_counts": exact,
        "notes": notes or {},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if trace:
        spans.dump(RESULTS_DIR / f"{stem}-spans.jsonl")
        untraced = RESULTS_DIR / f"{workload}-seed{seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]
            overhead = {}
            print("## tracing overhead (traced - untraced)")
            for name, (value, unit) in end_to_end.items():
                if name in base:
                    delta = value - base[name]["value"]
                    overhead[name] = delta
                    print(f"  {name:36s} {delta:+16.6g} {unit}")
            record["tracing_overhead"] = overhead
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0


# ----------------------------------------------------------------------
# Calls into the toolkit
# ----------------------------------------------------------------------
def _python(*args: str):
    """Run a fresh interpreter on the checkout's sources; returns it done."""
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def cli_cold(args: list[str], expect: str, ledger: Ledger) -> float:
    """Wall time of one ``python -m repro`` subprocess, output checked."""
    start = time.perf_counter()
    done = _python("-m", "repro", *args)
    elapsed = time.perf_counter() - start
    ledger.check(done.returncode == 0 and expect in done.stdout,
                 f"cli {' '.join(args)}: rc={done.returncode} "
                 f"stdout={done.stdout[-200:]!r}")
    return elapsed


def cli_import_probe() -> tuple[float, int]:
    """(seconds to ``import repro.cli`` cold, 1 if numpy came with it)."""
    code = ("import sys, time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t, int('numpy' in sys.modules))")
    seconds, numpy_loaded = _python("-c", code).stdout.split()
    return float(seconds), int(numpy_loaded)


def physical(result, machine, variable: str) -> tuple[str, str]:
    """Where a source variable lives: ("reg", name) or ("scratch", slot)."""
    mapping = result.allocation.mapping
    if variable in mapping:
        return "reg", mapping[variable]
    slots = result.allocation.spilled_slots
    if variable in slots:
        return "scratch", slots[variable]
    for register in machine.registers.names():
        if register.lower() == variable.lower():
            return "reg", register
    return "reg", variable


def poke(state, place: tuple[str, str], value: int) -> None:
    kind, where = place
    if kind == "scratch":
        state.scratchpad.write(where, value)
    else:
        state.write_reg(where, value)


def peek(state, place: tuple[str, str]) -> int:
    kind, where = place
    if kind == "scratch":
        return state.scratchpad.read(where)
    return state.read_reg(where)


def execute(machine, result, *, engine: str, inputs: dict, memory: dict,
            spans: Spans, max_cycles: int = 1_000_000):
    """Load, build a simulator, poke inputs and run; returns (sim, run)."""
    from repro.asm.loader import ControlStore
    from repro.sim.simulator import Simulator

    with spans.span("ControlStore.load", "asm"):
        store = ControlStore(machine)
        store.load(result.loaded)
    with spans.span("Simulator", "sim"):
        simulator = Simulator(machine, store, engine=engine)
    state = simulator.state
    for name, value in inputs.items():
        poke(state, physical(result, machine, name), value)
    for address, value in memory.items():
        state.memory.load_words(address, [value])
    with spans.span("Simulator.run", "sim"):
        run = simulator.run(result.loaded.name, max_cycles=max_cycles)
    return simulator, run


def trace_layers(spans: Spans) -> dict:
    """Self time per layer, span count and the estimated span overhead."""
    layers = {f"self_s.{layer}": (seconds, "s")
              for layer, seconds in spans.self_time_by_layer().items()
              if f"self_s.{layer}" in LAYER_METRICS}
    roots = sum(r[3] - r[2] for r in spans.records if r[4] < 0)
    count = len(spans.records)
    layers["trace.spans"] = (count, "count")
    layers["trace.overhead_pct"] = (
        100.0 * count * span_cost_s() / roots if roots else 0.0, "%")
    return layers


#: Cold CLI subprocesses per run: half before the measuring window and
#: half after it, so they meet more than one state of a noisy host.
CLI_SAMPLES = 12

#: The probe run before and after every CLI sample: a fresh
#: interpreter doing start-up work of the kind the CLI does (loading
#: modules and extension libraries, numpy's among them) and none of the
#: toolkit's, so no change to the toolkit can move it.  Each entry is
#: (code, its median wall time on the host the benchmark was tuned on:
#: 2-vCPU x86-64, Python 3.11); the second serves where numpy is missing.
CLI_PROBES = (("import numpy", 0.22),
              ("import asyncio, decimal, email.parser, json", 0.17))


def _cli_probe() -> tuple[str, float]:
    import importlib.util

    return CLI_PROBES[0 if importlib.util.find_spec("numpy") else 1]


class ColdCli:
    """Cold CLI samples, each taken between two runs of a probe.

    The CLI's wall time follows the host: on a shared 2-vCPU host the
    same command took 0.37 s to 0.51 s at its fastest over sixteen
    runs, depending on the minute it ran in.  The probe next to it
    slows down with it, so each sample is divided by the mean of the
    probes just before and after it, and :meth:`scaled_s` reports the
    median of those ratios times the probe's time on the tuning host:
    the CLI's wall time at that host's speed.  Over ten sets taken
    minutes apart, the fastest of sixteen samples spread 0.16 (IQR /
    median) and the scaled median of twelve 0.03.  A change to the
    toolkit moves the CLI and not the probe, so it moves the metric in
    full.
    """

    def __init__(self, sample) -> None:
        self._sample = sample  # runs the CLI once, returns its wall time
        self.code, self.reference_s = _cli_probe()
        self.seconds: list[float] = []
        self.probes: list[float] = []
        self.ratios: list[float] = []

    def _probe(self) -> float:
        start = time.perf_counter()
        done = _python("-c", self.code)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"CLI probe failed: {done.stderr[-200:]}")
        self.probes.append(elapsed)
        return elapsed

    def take(self, count: int) -> None:
        before = self._probe()
        for _ in range(count):
            seconds = self._sample()
            after = self._probe()
            self.seconds.append(seconds)
            self.ratios.append(seconds / ((before + after) / 2))
            before = after

    def scaled_s(self) -> float:
        return median(self.ratios) * self.reference_s

    def named(self) -> dict:
        """The raw figures behind ``cli_cold_s``, for the record."""
        return {
            "cli_cold_median_s": (median(self.seconds), "s"),
            "cli_cold_min_s": (min(self.seconds), "s"),
            "cli_probe_median_s": (median(self.probes), "s"),
            "cli_to_probe_ratio": (median(self.ratios), "ratio"),
        }


def cli_run_sampler(machine: str, seed: int, ledger: Ledger) -> ColdCli:
    """Cold ``python -m repro run`` samples of the multiply loop on
    ``machine``, the printed product of each checked."""
    import random

    import references as ref

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / "mul.yalll"
    path.write_text(ref.MUL_SOURCE)
    rng = random.Random(seed)

    def sample() -> float:
        a, n = rng.randint(2, 50), rng.randint(2, 50)
        return cli_cold(
            ["run", str(path), "--lang", "yalll", "--machine", machine,
             "--set", f"a={a}", "--set", f"n={n}"],
            f"exit value: {ref.mul(a, n)} ", ledger)
    return ColdCli(sample)


def end_to_end(*, setup_times, ledger: Ledger, throughput: float,
               latency_ms: float, cli: ColdCli, live_children_kb: int = 0
               ) -> dict:
    """The gated metrics, computed the same way for every workload
    except ``throughput`` and ``latency_ms``, whose statistic each
    workload chooses and states in its notes.  ``cli_cold_s`` is the
    CLI's wall time scaled to the tuning host's speed (:class:`ColdCli`)."""
    return {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(live_children_kb), "MB"),
        "ok_ratio": (1 - ledger.failed / max(1, ledger.attempted), "ratio"),
        "throughput": (throughput, "1/s"),
        "latency_ms": (latency_ms, "ms"),
        "cli_cold_s": (cli.scaled_s(), "s"),
    }
