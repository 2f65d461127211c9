"""Service backpressure under flood: throughput, latency, shed rate.

Floods a live ``repro.serve`` instance with 4x its admission capacity
and measures what the robustness issue demands of admission control:

* every request gets a terminal structured answer (200/4xx/5xx —
  never a hang, never a dropped connection);
* shed requests learn their fate *immediately* (typed 429, measured
  p99 in milliseconds, not queue-timeout seconds);
* the p99 latency of *accepted* requests stays bounded, because the
  per-class admission caps keep the queue short.

A second scenario floods the service with *homogeneous* ``/run``
traffic (one program, per-request register pokes) in two modes —
batching disabled, then enabled, alternating over several runs — and
records the cross-request micro-batching win as median and min/max:
lockstep lane occupancy, throughput speedup, and that both modes
answer with byte-identical result blocks on every run.  Dispatch is
work-conserving (no gather window): the lanes that batch are the ones
that queued while both workers were busy.

Writes the machine-readable trajectory file ``BENCH_serve.json``.

Run standalone (the CI serve-smoke job does)::

    PYTHONPATH=src python benchmarks/bench_serve_load.py \
        --json BENCH_serve.json

or under pytest with the rest of the bench suite.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.serve import ServeConfig, ServiceRunner

ADD_SRC = """
    put a,2
    add a,a,3
    exit a
"""

#: The homogeneous workload: one program, per-request ``set`` pokes —
#: exactly the shape cross-request micro-batching gathers into
#: lockstep lanes (every lane branches identically because ``n`` is
#: uniform; only the summand ``a`` differs).
LOOP_SRC = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""

#: Small admission caps so a modest thread count is a genuine 4x flood.
CLASS_LIMITS = {"compile": 4, "run": 4, "campaign": 2}

FLOOD_FACTOR = 4
WAVES = 3

#: Homogeneous-flood scenario: enough per-run work that simulation
#: (not HTTP plumbing) dominates, and enough lanes that the lockstep
#: driver's fixed per-step cost amortises.
HOMOGENEOUS_REQUESTS = 64
HOMOGENEOUS_TRIPS = 5000
HOMOGENEOUS_LANES = 32
#: Runs of each mode behind the recorded median and min/max.
HOMOGENEOUS_REPEATS = 5


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _request_mix() -> list[tuple[str, dict]]:
    """One flood wave: 4x capacity, spread across request classes."""
    capacity = sum(CLASS_LIMITS.values())
    flood = capacity * FLOOD_FACTOR
    mix = []
    for index in range(flood):
        if index % 5 == 0:
            mix.append(("/campaign", {
                "source": ADD_SRC, "lang": "yalll",
                "n": 4, "seed": index, "deadline_s": 60,
            }))
        elif index % 2 == 0:
            mix.append(("/run", {
                "source": ADD_SRC, "lang": "yalll", "deadline_s": 60,
            }))
        else:
            mix.append(("/compile", {
                "source": ADD_SRC, "lang": "yalll", "deadline_s": 60,
            }))
    return mix


def run_suite(waves: int = WAVES) -> dict:
    """Flood a fresh service ``waves`` times; aggregate the answers."""
    with tempfile.TemporaryDirectory() as scratch:
        config = ServeConfig(
            workers=2,
            class_limits=dict(CLASS_LIMITS),
            cache_dir=scratch,
            seed=1980,
        )
        samples: list[tuple[int, float]] = []
        with ServiceRunner(config) as runner:
            def one(item):
                path, payload = item
                start = time.perf_counter()
                status, _body = runner.request(
                    "POST", path, payload, timeout=120
                )
                return status, time.perf_counter() - start

            start = time.perf_counter()
            for _ in range(waves):
                mix = _request_mix()
                with concurrent.futures.ThreadPoolExecutor(
                    max_workers=len(mix)
                ) as threads:
                    samples.extend(threads.map(one, mix))
            wall = time.perf_counter() - start
            health = runner.request("GET", "/healthz")[1]

    accepted = [lat for status, lat in samples if status != 429]
    shed = [lat for status, lat in samples if status == 429]
    return {
        "benchmark": "serve_load",
        "workers": 2,
        "class_limits": dict(CLASS_LIMITS),
        "capacity": sum(CLASS_LIMITS.values()),
        "flood_factor": FLOOD_FACTOR,
        "waves": waves,
        "requests": len(samples),
        "wall_s": round(wall, 3),
        "requests_per_s": round(len(samples) / wall, 1),
        "accepted": {
            "count": len(accepted),
            "p50_s": round(_percentile(accepted, 0.50), 4),
            "p99_s": round(_percentile(accepted, 0.99), 4),
        },
        "shed": {
            "count": len(shed),
            "rate": round(len(shed) / len(samples), 3),
            "p50_s": round(_percentile(shed, 0.50), 4),
            "p99_s": round(_percentile(shed, 0.99), 4),
        },
        "pool": {
            key: health["pool"][key]
            for key in ("submitted", "completed", "crashes", "restarts")
        },
    }


def _homogeneous_payload(index: int) -> dict:
    return {
        "source": LOOP_SRC, "lang": "yalll",
        "set": {"a": index, "n": HOMOGENEOUS_TRIPS}, "show": ["p"],
    }


def _run_homogeneous_mode(
    batch_max_lanes: int, requests: int
) -> tuple[dict, list]:
    """One homogeneous flood against a fresh service; returns
    ``(measurements, per-request result blocks)``."""
    with tempfile.TemporaryDirectory() as scratch:
        config = ServeConfig(
            workers=2,
            class_limits={"compile": 4, "run": requests + 8,
                          "campaign": 2},
            cache_dir=scratch,
            seed=1980,
            batch_max_lanes=batch_max_lanes,
        )
        with ServiceRunner(config) as runner:
            # Warm the compile cache so the measured wave is pure run
            # traffic in both modes.
            runner.request(
                "POST", "/run",
                {"source": LOOP_SRC, "lang": "yalll",
                 "set": {"n": 1}, "show": ["p"]},
                timeout=120,
            )

            def one(index):
                return runner.request(
                    "POST", "/run", _homogeneous_payload(index),
                    timeout=300,
                )

            start = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=requests
            ) as threads:
                responses = list(threads.map(one, range(requests)))
            wall = time.perf_counter() - start
            health = runner.request("GET", "/healthz")[1]
    statuses = [status for status, _ in responses]
    assert statuses == [200] * requests, statuses
    pool = health["pool"]
    flushes = pool["batch_flushes"]
    return {
        "batch_max_lanes": batch_max_lanes,
        "wall_s": round(wall, 3),
        "runs_per_s": round(requests / wall, 1),
        "batch_flushes": flushes,
        "batch_lanes": pool["batch_lanes"],
        "lane_occupancy": (
            round(pool["batch_lanes"] / flushes, 1) if flushes else 0.0
        ),
    }, [body["result"] for _, body in responses]


def _spread(samples: list[float], digits: int = 2) -> dict:
    return {
        "median": round(statistics.median(samples), digits),
        "min": round(min(samples), digits),
        "max": round(max(samples), digits),
        "samples": [round(value, digits) for value in samples],
    }


def _summarise(runs: list[dict]) -> dict:
    """One mode's runs as median and min/max per measurement."""
    return {
        "batch_max_lanes": runs[0]["batch_max_lanes"],
        **{
            key: _spread([run[key] for run in runs])
            for key in ("runs_per_s", "wall_s", "batch_flushes",
                        "batch_lanes", "lane_occupancy")
        },
    }


def run_homogeneous_suite(
    requests: int = HOMOGENEOUS_REQUESTS,
    repeats: int = HOMOGENEOUS_REPEATS,
) -> dict:
    """Same homogeneous flood, scalar vs batched, alternating for
    ``repeats`` runs of each mode; byte-identity checked on every run."""
    scalar_runs, batched_runs = [], []
    for _ in range(repeats):
        scalar, scalar_results = _run_homogeneous_mode(1, requests)
        batched, batched_results = _run_homogeneous_mode(
            HOMOGENEOUS_LANES, requests
        )
        if batched_results != scalar_results:
            raise AssertionError(
                "batched flood produced different result bytes than scalar"
            )
        scalar_runs.append(scalar)
        batched_runs.append(batched)
    return {
        "benchmark": "serve_homogeneous_flood",
        "requests": requests,
        "loop_trips": HOMOGENEOUS_TRIPS,
        "repeats": repeats,
        "scalar": _summarise(scalar_runs),
        "batched": _summarise(batched_runs),
        "speedup": _spread([
            b["runs_per_s"] / s["runs_per_s"]
            for s, b in zip(scalar_runs, batched_runs)
        ]),
        "results_identical": True,
    }


def render(payload: dict) -> str:
    from repro.bench import render_table

    accepted, shed = payload["accepted"], payload["shed"]
    return render_table(
        ["class", "count", "p50 (s)", "p99 (s)"],
        [
            ["accepted", accepted["count"],
             f"{accepted['p50_s']:.4f}", f"{accepted['p99_s']:.4f}"],
            ["shed (429)", shed["count"],
             f"{shed['p50_s']:.4f}", f"{shed['p99_s']:.4f}"],
        ],
        title=(
            f"Serve flood at {payload['flood_factor']}x capacity "
            f"({payload['requests']} requests, "
            f"{payload['requests_per_s']}/s, "
            f"shed rate {shed['rate']:.0%})"
        ),
    )


def render_homogeneous(payload: dict) -> str:
    from repro.bench import render_table

    def cell(spread: dict) -> str:
        return f"{spread['median']} [{spread['min']}, {spread['max']}]"

    scalar, batched = payload["scalar"], payload["batched"]
    return render_table(
        ["mode", "runs/s", "wall (s)", "flushes", "occupancy"],
        [
            [label, cell(mode["runs_per_s"]), cell(mode["wall_s"]),
             cell(mode["batch_flushes"]), cell(mode["lane_occupancy"])]
            for label, mode in (
                ("scalar", scalar),
                (f"batched ({batched['batch_max_lanes']} lanes)", batched),
            )
        ],
        title=(
            f"Homogeneous /run flood ({payload['requests']} requests, "
            f"{payload['loop_trips']} loop trips each, median [min, max] "
            f"of {payload['repeats']} runs per mode): "
            f"{payload['speedup']['median']}x throughput, identical bytes"
        ),
    )


# ----------------------------------------------------------------------
# pytest entry point (collected with the rest of the bench suite)
# ----------------------------------------------------------------------
def test_backpressure_bounds_p99(report, benchmark):
    payload = run_suite(waves=2)
    report(render(payload))
    # Admission control must actually shed at 4x capacity...
    assert payload["shed"]["count"] > 0
    # ...and a shed request learns its fate immediately, not after a
    # queue timeout (generous bound for noisy CI hosts).
    assert payload["shed"]["p99_s"] < 2.0
    # Accepted work is bounded by the short admission queue, not by
    # the full flood backlog.
    assert payload["accepted"]["p99_s"] < 60.0
    # Every request got a terminal answer.
    assert payload["requests"] == (
        payload["accepted"]["count"] + payload["shed"]["count"]
    )
    benchmark(lambda: _percentile(list(range(1000)), 0.99))


def test_homogeneous_flood_batches_with_identical_bytes(
    report, benchmark
):
    payload = run_homogeneous_suite(requests=32, repeats=1)
    report(render_homogeneous(payload))
    # The flood must actually have batched (lanes carried in lockstep
    # dispatches of >= 2)...
    assert payload["batched"]["batch_lanes"]["min"] >= 2
    assert payload["batched"]["batch_flushes"]["min"] >= 1
    # ...with responses byte-identical to scalar mode (checked inside
    # the suite; re-asserted here so a refactor cannot drop it)...
    assert payload["results_identical"]
    # ...and a real throughput win.  The committed BENCH_serve.json
    # records ~1.8x (median of 5 runs); under pytest alongside the rest
    # of the suite we only insist batching never loses.
    assert payload["speedup"]["min"] >= 1.2
    benchmark(lambda: _homogeneous_payload(7))


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Flood the serve subsystem and measure backpressure"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable results to PATH",
    )
    parser.add_argument(
        "--waves", type=int, default=WAVES,
        help=f"flood waves to run (default {WAVES})",
    )
    parser.add_argument(
        "--max-shed-p99", type=float, default=None, metavar="SECONDS",
        help="exit 1 when the shed-request p99 exceeds this bound",
    )
    args = parser.parse_args(argv)
    payload = run_suite(waves=args.waves)
    print(render(payload))
    payload["homogeneous"] = run_homogeneous_suite()
    print(render_homogeneous(payload["homogeneous"]))
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    if (
        args.max_shed_p99 is not None
        and payload["shed"]["p99_s"] > args.max_shed_p99
    ):
        print(
            f"FAIL: shed p99 {payload['shed']['p99_s']}s "
            f"> bound {args.max_shed_p99}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
