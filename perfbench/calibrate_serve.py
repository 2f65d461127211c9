"""Measure what ``serve-mixed``'s offered rate and latency limits rest on.

Run from the root of a checkout::

    python3 perfbench/calibrate_serve.py --seconds 20 --repeats 5

It starts the service the workload uses (default ``ServeConfig``),
sends the workload's request mix as a closed loop over its two
connections to find the capacity, then runs the open loop at
``--fraction`` of that capacity ``--repeats`` times and prints each
class's p50 and p90 latency from the due time.  ``wl_serve.RATE_PER_S``
and ``wl_serve.LIMIT_MS`` are set from its output (see the comments
there).
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import wl_serve  # noqa: E402


def _by_class(requests, records) -> dict[str, list[float]]:
    latency = {name: [] for name in wl_serve.LIMIT_MS}
    for (job_class, _job, check), record in zip(requests, records):
        _cls, due, _sent, done, status, body = record
        if not (status == 200 and check(body)):
            raise SystemExit(f"calibration request failed: {job_class} "
                             f"{status} {str(body)[:200]}")
        latency[job_class].append((done - due) * 1e3)
    return latency


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--fraction", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    programs = wl_serve._programs()
    warm_rng = random.Random(args.seed ^ 0x77)
    warm = [wl_serve._run_job(warm_rng, m, n, s)[0]
            for m, n, s, _w in programs]
    spans = harness.Spans(False)
    runner = wl_serve._start(spans, warm)
    try:
        # Closed loop: enough requests to keep both connections busy
        # for the whole window at any plausible speed.
        requests = wl_serve._draw(args.seed, programs,
                                  int(args.seconds * 400))
        records = []
        deadline = harness.Deadline(args.seconds)
        chunk = 40
        while not deadline.expired():
            part = requests[len(records):len(records) + chunk]
            records += wl_serve._load(runner.port, part, spans)
        wall = max(r[3] for r in records) - min(r[1] for r in records)
        capacity = len(records) / wall
        service = _by_class(requests, records)
        print(f"closed loop over {wl_serve.CONNECTIONS} connections: "
              f"{len(records)} requests in {wall:.1f} s = "
              f"{capacity:.1f} req/s")
        for name, values in service.items():
            print(f"  {name:9s} service p50 "
                  f"{harness.percentile(values, 50):8.2f} ms  p90 "
                  f"{harness.percentile(values, 90):8.2f} ms  "
                  f"n={len(values)}")
        rate = args.fraction * capacity
        print(f"open loop at {args.fraction:.2f} x capacity = "
              f"{rate:.1f} req/s")
        worst = {name: 0.0 for name in wl_serve.LIMIT_MS}
        for repeat in range(args.repeats):
            requests = wl_serve._draw(args.seed + 1 + repeat, programs,
                                      int(args.seconds * rate))
            records = wl_serve._load(runner.port, requests, spans, rate)
            latency = _by_class(requests, records)
            line = []
            for name, values in latency.items():
                p90 = harness.percentile(values, 90)
                worst[name] = max(worst[name], p90)
                line.append(f"{name} p50 {harness.percentile(values, 50):.1f}"
                            f" p90 {p90:.1f}")
            print(f"  run {repeat + 1}: " + "; ".join(line) + " (ms)")
        print("highest p90 per class: " + ", ".join(
            f"{name} {value:.1f} ms" for name, value in worst.items()))
    finally:
        runner.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
