"""Workload ``serve-mixed``: per-request fixed cost of ``repro serve``.

An open-loop generator offers a fixed rate of requests to a
``ServiceRunner`` with the default ``ServeConfig``, over at most two
one-shot connections: mostly small ``/run`` requests (corpus programs
and a counted multiply loop on every machine, with seed-drawn ``set``
and ``mem`` pokes), some ``/compile`` requests of repeated sources and
a few small ``/campaign`` requests.  Each request is timed from the
moment it was due, so a stall also delays the requests behind it.
With two connections cross-request batching can gather at most two
lanes; the workload does not raise the concurrency to hide that.

Per-request costs dominate here (``job_key`` on the event loop, the
machine build and fingerprint, cache hits, a fresh simulator that
re-decodes, the gather window, pipe pickling); compile stages and
engine hot loops do little.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

import harness
from harness import Spans, physical
import references as ref

CONNECTIONS = 2
#: The class of request ``i`` is ``MIX[i % 20]``: 80% /run, 15%
#: /compile, 5% /campaign, evenly spread so every seed offers the same
#: load; the seed draws programs, machines and data.  The split is an
#: assumption, not a measured trace: it follows the shape the workload
#: is meant to have (mostly small runs, some compiles, a few
#: campaigns).
MIX = ("run", "run", "run", "compile", "run", "run", "run", "run", "run",
       "compile", "run", "run", "run", "run", "run", "run", "compile",
       "run", "run", "campaign")
#: Offered load: half the capacity ``calibrate_serve.py`` measured for
#: this mix as a closed loop over the two connections (69 req/s on a
#: 2-vCPU x86-64 host under Python 3.11), so the service runs below
#: its knee and latency shows per-request cost rather than queueing.
RATE_PER_S = 35.0
#: A request misses the latency limit of its class if it takes longer
#: (measured from its due time).  Each limit is twice the highest p90
#: of its class over five ``calibrate_serve.py`` open-loop runs at
#: ``RATE_PER_S`` (run 21.3, compile 9.2, campaign 74.3 ms), rounded
#: up to 5 ms.  The factor 2 leaves room for the slow periods of the
#: host, where a share of requests takes about 1.8x longer; a change
#: that doubles a class's typical latency pushes it over the limit
#: and lowers goodput.
LIMIT_MS = {"run": 45.0, "compile": 20.0, "campaign": 150.0}
CAMPAIGN_SCENARIOS = 4
SETUP_REPEATS = 3
TIMEOUT_S = 10.0


def _programs():
    from repro.bench.programs import CORPUS
    from repro.registry import build_machine, get_language, machine_names

    programs = []
    sources = {name: CORPUS[name][0] for name in ref.CORPUS_NAMES}
    sources["mul"] = ref.MUL_SOURCE
    for machine_name in machine_names():
        machine = build_machine(machine_name)
        for name, source in sources.items():
            result = get_language("yalll").compile(source, machine)
            inputs = CORPUS[name][1] if name in CORPUS else ("a", "n")
            # /run pokes registers only; a program whose inputs the
            # allocator spilled to the scratchpad cannot be driven.
            if any(physical(result, machine, v)[0] == "scratch"
                   for v in inputs):
                continue
            programs.append((machine_name, name, source,
                             [w.word for w in result.loaded.words]))
    return programs


def _run_job(rng, machine, name, source):
    """A /run payload and a checker for its response body."""
    if name == "mul":
        a, n = rng.randint(2, 200), rng.randint(2, 200)
        case = ref.CorpusCase(name, {"a": a, "n": n}, {}, ref.mul(a, n), {})
    else:
        case = ref.corpus_case(name, rng)
    show, expect_regs = [], {}
    if name == "translit":
        # memory_expect covers the string and its terminating zero.
        length = len(case.memory_expect) - 1
        show, expect_regs = ["str"], {"str": case.inputs["str"] + length}
    elif name == "memcpy":
        n = case.inputs["n"]
        show = ["n", "src", "dst"]
        expect_regs = {"n": 0, "src": case.inputs["src"] + n,
                       "dst": case.inputs["dst"] + n}
    job = {"source": source, "lang": "yalll", "machine": machine,
           "set": case.inputs,
           "mem": {str(a): v for a, v in case.memory.items()},
           "show": show}

    def check(body):
        result = body.get("result") or {}
        return (result.get("exit_value") == case.exit_value
                and result.get("registers") == expect_regs)
    return job, check


def _draw(seed: int, programs, count: int):
    from repro.bench.programs import CORPUS

    checksum_source = CORPUS["checksum"][0]
    rng = random.Random(seed)
    requests = []
    for index in range(count):
        job_class = MIX[index % len(MIX)]
        machine, name, source, words = rng.choice(programs)
        if job_class == "run":
            job, check = _run_job(rng, machine, name, source)
            requests.append(("run", job, check))
        elif job_class == "compile":
            job = {"source": source, "lang": "yalll", "machine": machine}
            requests.append(("compile", job, lambda body, w=words: [
                int(x["word"], 16) for x in
                (body.get("result") or {}).get("words", [])] == w))
        else:
            case = ref.corpus_case("checksum", rng)
            job = {"source": checksum_source, "lang": "yalll",
                   "machine": "HM1", "n": CAMPAIGN_SCENARIOS,
                   "seed": rng.randrange(1 << 30), "set": case.inputs,
                   "mem": {str(a): v for a, v in case.memory.items()}}
            requests.append(("campaign", job, lambda body, e=case.exit_value:
                             (body.get("result") or {}).get("golden", {})
                             .get("exit_value") == e
                             and (body.get("result") or {}).get("scenarios")
                             == CAMPAIGN_SCENARIOS))
    return requests


def _post(port: int, path: str, payload) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=TIMEOUT_S)
    try:
        body = json.dumps(payload)
        connection.request("POST" if payload is not None else "GET", path,
                           body=body if payload is not None else None,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    if response.getheader("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(raw)
    return response.status, {"text": raw.decode()}


def _metrics(port: int) -> dict[str, float]:
    """/metrics as {series: value}, labels folded into the name."""
    _status, body = _post(port, "/metrics", None)
    series = {}
    for line in body["text"].splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)
    return series


def _family(series: dict, prefix: str) -> float:
    return sum(v for k, v in series.items()
               if k == prefix or k.startswith(prefix + "{"))


def _start(spans: Spans, warm_jobs):
    from repro.serve import ServeConfig, ServiceRunner

    runner = ServiceRunner(ServeConfig()).start()
    for job in warm_jobs:
        with spans.span("warm", "http"):
            _post(runner.port, "/run", job)
    return runner


def _load(port: int, requests, spans: Spans, rate: float | None = None
          ) -> list:
    """Send ``requests`` on the open-loop schedule, ``rate`` per second
    (``None``: closed loop, each connection sending as soon as its last
    reply is in); returns one record (class, due, sent, done, status,
    body-or-error) per request."""
    records = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def client():
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            due = (t0 + index / rate if rate
                   else max(t0, time.perf_counter()))
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            job_class, job, _check = requests[index]
            sent = time.perf_counter()
            try:
                status, body = _post(port, f"/{job_class}", job)
            except (OSError, http.client.HTTPException) as error:
                status, body = 0, {"error": repr(error)}
            done = time.perf_counter()
            spans.record("http.round_trip", "http", sent, done, index + 1)
            records[index] = (job_class, due, sent, done, status, body)

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def run(seed: int, seconds: float, trace: bool) -> int:
    spans = Spans(trace)
    ledger = harness.Ledger()
    cli = harness.cli_run_sampler("HP300m", seed, ledger)
    cli.take(harness.CLI_SAMPLES // 2)

    programs = _programs()
    count = max(1, int(seconds * RATE_PER_S))
    requests = _draw(seed, programs, count)
    warm_rng = random.Random(seed ^ 0x77)
    warm_jobs = [_run_job(warm_rng, m, n, s)[0] for m, n, s, _w in programs]
    setup_times = []
    runner = None
    try:
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            runner = _start(spans, warm_jobs)
            setup_times.append(time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                runner.stop()
                runner = None
        before = _metrics(runner.port)
        start = time.perf_counter()
        records = _load(runner.port, requests, spans, RATE_PER_S)
        wall = time.perf_counter() - start
        after = _metrics(runner.port)
        workers_kb = harness.live_children_peak_kb()
    finally:
        if runner is not None:
            runner.stop()

    latency = {name: [] for name in MIX}
    within = {name: 0 for name in MIX}
    lag, good = [], 0
    instructions = cycles = 0
    for (job_class, job, check), record in zip(requests, records):
        _cls, due, sent, done, status, body = record
        elapsed_ms = (done - due) * 1e3
        lag.append((sent - due) * 1e3)
        latency[job_class].append(elapsed_ms)
        ok = status == 200 and body.get("status") == "ok" and check(body)
        ledger.check(ok, f"{job_class} {job.get('machine')} -> {status} "
                         f"{str(body)[:160]}")
        if ok and elapsed_ms <= LIMIT_MS[job_class]:
            good += 1
            within[job_class] += 1
        if ok and job_class == "run":
            instructions += body["result"]["instructions"]
            cycles += body["result"]["cycles"]
    delta = {
        name: _family(after, f"repro_serve_{name}")
        - _family(before, f"repro_serve_{name}")
        for name in ("requests_total", "outcomes_total", "dedup_total",
                     "shed_total")
    }

    def series_delta(series: str) -> float:
        return after.get(series, 0) - before.get(series, 0)
    crashes = series_delta('repro_serve_pool_events_total{event="crashes"}')
    flushes = series_delta('repro_serve_batch_total{kind="flushes"}')
    lanes = series_delta('repro_serve_batch_total{kind="lanes"}')
    ledger.check(delta["outcomes_total"] == delta["requests_total"]
                 + delta["dedup_total"],
                 f"pool law broken: completed {delta['outcomes_total']} != "
                 f"accepted {delta['requests_total']} + dedup "
                 f"{delta['dedup_total']}")

    # Goodput over the time the schedule actually took to drain.
    duration = max(r[3] for r in records) - min(r[1] for r in records)
    run_ms = latency["run"]
    all_ms = [t for values in latency.values() for t in values]
    layers = {}
    if trace:
        layers = _layers(requests, run_ms, spans)
        layers.update({
            "serve.batch_lanes_per_flush": (lanes / flushes if flushes
                                            else 0.0, "count"),
            "serve.dedup": (delta["dedup_total"], "count"),
            "serve.shed": (delta["shed_total"], "count"),
            "serve.crashes": (crashes, "count"),
            "loadgen.lag_p99_ms": (harness.percentile(lag, 99), "ms"),
            "loadgen.sent": (count, "count"),
            "sim.instructions": (instructions, "count"),
            "sim.cycles": (cycles, "count"),
        })
    cli.take(harness.CLI_SAMPLES // 2)
    fast_half_ms = harness.fast_half_mean(run_ms)
    end_to_end = harness.end_to_end(
        setup_times=setup_times, ledger=ledger, throughput=good / duration,
        latency_ms=fast_half_ms, cli=cli,
        live_children_kb=workers_kb)
    named = {
        "run_fast_half_mean_ms": (fast_half_ms, "ms"),
        "run_p1_ms": (harness.percentile(run_ms, 1), "ms"),
        "run_p50_ms": (harness.percentile(run_ms, 50), "ms"),
        "run_p90_ms": (harness.percentile(run_ms, 90), "ms"),
        "run_p99_ms": (harness.percentile(run_ms, 99), "ms"),
        "run_samples": (len(run_ms), "count"),
        "all_p50_ms": (harness.percentile(all_ms, 50), "ms"),
        "goodput_rps": (good / duration, "1/s"),
        "offered_rps": (RATE_PER_S, "1/s"),
        **{f"{name}_within_limit_ratio": (
            within[name] / max(1, len(latency[name])), "ratio")
           for name in LIMIT_MS},
        "achieved_rps": (count / wall, "1/s"),
        "loadgen_lag_p99_ms": (harness.percentile(lag, 99), "ms"),
        **cli.named(),
        "fail_ratio": (ledger.failed / max(1, ledger.attempted), "ratio"),
        "metrics_accepted": (delta["requests_total"], "count"),
        "metrics_completed": (delta["outcomes_total"], "count"),
        "metrics_dedup": (delta["dedup_total"], "count"),
        "metrics_shed": (delta["shed_total"], "count"),
        "metrics_crashes": (crashes, "count"),
        "batch_lanes_per_flush": (lanes / flushes if flushes else 0.0,
                                  "count"),
    }
    exact = {"sim.instructions": instructions, "sim.cycles": cycles}
    return harness.emit(
        workload="serve-mixed", seed=seed, trace=trace, ledger=ledger,
        end_to_end=end_to_end, named=named, layers=layers, exact=exact,
        spans=spans,
        notes={"run_ms": run_ms,
               "latency": "mean of the faster half of /run from due time; "
                          "p99 is printed but rests on "
                          f"{len(run_ms) // 100} samples beyond it",
               "throughput": "goodput: 200, correct and within the class "
                             f"latency limit {LIMIT_MS}, per second",
               "load": f"open loop {RATE_PER_S}/s over {CONNECTIONS} "
                       "one-shot connections"},
    )


def _layers(requests, run_ms, spans: Spans) -> dict:
    """In-process timings of the serve layers on this run's payloads."""
    import pickle

    from repro.asm.loader import ControlStore
    from repro.cache import CompileCache, compile_key, machine_fingerprint
    from repro.registry import build_machine, get_language
    from repro.serve.jobs import (
        batch_group_key, dedup_key, execute_job, job_key,
    )
    from repro.sim.simulator import Simulator

    jobs = [dict(job, op="run") for cls, job, _ in requests
            if cls == "run"][:100]
    timings = {name: [] for name in (
        "job_key", "dedup_key", "group_key", "execute_job", "pickle",
        "render", "build", "fingerprint", "key", "mem_hit")}
    sizes = []
    misses = hits = 0
    cache = CompileCache()
    yalll = get_language("yalll")
    pipeline = yalll.pipeline
    options = pipeline.cache_options(dict(pipeline.option_defaults))
    hits_ok = []

    def timed(name, fn):
        start = time.perf_counter()
        with spans.span(name, _LAYER_OF.get(name, "serve")):
            value = fn()
        timings[name].append(time.perf_counter() - start)
        return value

    for job in jobs:
        execute_job(job)  # warm this process's cache for the timed call
    for index, job in enumerate(jobs):
        spans.new_op()
        timed("job_key", lambda: job_key(job))
        timed("dedup_key", lambda: dedup_key(job))
        timed("group_key", lambda: batch_group_key(job))
        response = timed("execute_job", lambda: execute_job(job))
        lane = [(index, job, 0, 30.0)]

        def round_trip():
            blob = pickle.dumps(lane)
            reply = pickle.dumps([(index, response)])
            pickle.loads(blob)
            pickle.loads(reply)
            return len(blob) + len(reply)
        sizes.append(timed("pickle", round_trip))
        timed("render", lambda: json.dumps(
            {"class": "run", "deadline_s": 30.0, **response},
            sort_keys=True).encode())
        machine = timed("build", lambda: build_machine(job["machine"]))
        timed("fingerprint", lambda: machine_fingerprint(machine))
        key = timed("key", lambda: compile_key(
            job["source"], "yalll", machine, options))
        result = yalll.compile(job["source"], machine, cache=cache)
        ledger_ok = timed("mem_hit", lambda: cache.get(key)) is result
        hits_ok.append(ledger_ok)
        with spans.span("ControlStore.load", "asm"):
            store = ControlStore(machine)
            store.load(result.loaded)
        with spans.span("Simulator", "sim"):
            simulator = Simulator(machine, store, engine="decoded")
        for name, value in job["set"].items():
            simulator.state.write_reg(
                result.allocation.mapping.get(name, name), value)
        for address, value in job["mem"].items():
            simulator.state.memory.load_words(int(address), [value])
        with spans.span("Simulator.run", "sim"):
            outcome = simulator.run(result.loaded.name)
        misses += outcome.plan_cache["misses"]
        hits += outcome.plan_cache["hits"]

    ms = lambda name: harness.median(timings[name]) * 1e3
    accounted = sum(ms(n) for n in ("job_key", "dedup_key", "group_key",
                                    "execute_job", "pickle", "render"))
    layers = {
        "serve.job_key_ms": (ms("job_key"), "ms"),
        "serve.dedup_key_ms": (ms("dedup_key"), "ms"),
        "serve.group_key_ms": (ms("group_key"), "ms"),
        "serve.execute_job_ms": (ms("execute_job"), "ms"),
        "serve.pickle_ms": (ms("pickle"), "ms"),
        "serve.pickle_bytes": (harness.mean(sizes), "bytes"),
        "serve.render_ms": (ms("render"), "ms"),
        "serve.unaccounted_ms": (harness.percentile(run_ms, 50) - accounted,
                                 "ms"),
        "machine.build_ms": (ms("build"), "ms"),
        "cache.fingerprint_ms": (ms("fingerprint"), "ms"),
        "cache.key_ms": (ms("key"), "ms"),
        "cache.mem_hit_ms": (ms("mem_hit"), "ms"),
        "cache.hit_ratio": (sum(hits_ok) / max(1, len(hits_ok)), "ratio"),
        "asm.load_ms": (harness.mean(spans.durations("ControlStore.load"))
                        * 1e3, "ms"),
        "sim.init_ms": (harness.mean(spans.durations("Simulator")) * 1e3,
                        "ms"),
        "sim.decode.misses": (misses, "count"),
        "sim.decode.hit_ratio": (hits / max(1, hits + misses), "ratio"),
    }
    import_s, numpy_loaded = harness.cli_import_probe()
    layers["cli.import_s"] = (import_s, "s")
    layers["cli.numpy_imported"] = (numpy_loaded, "count")
    layers.update(harness.trace_layers(spans))
    return layers


_LAYER_OF = {"build": "machine", "fingerprint": "cache", "key": "cache",
             "mem_hit": "cache", "pickle": "serve", "render": "serve"}
