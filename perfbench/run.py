"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-m1 --seed 1 --seconds 12 --trace 0

prints every metric with its unit, checks every output against the
references in ``references.py`` and the frozen corpus, saves the full
record under ``perfbench/results/`` and prints one JSON object as the
last line.  ``--trace 1`` records spans around each call into the
toolkit and reports the per-layer metrics instead.

``python3 perfbench/run.py --diff A.json B.json`` compares the exact
counts of two saved records and exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("sim-m1", "compile-cold", "serve-mixed")


def diff(first: str, second: str) -> int:
    counts = [json.loads(Path(p).read_text())["exact_counts"]
              for p in (first, second)]
    names = sorted(set(counts[0]) | set(counts[1]))
    differing = [n for n in names if counts[0].get(n) != counts[1].get(n)]
    for name in names:
        mark = "DIFF" if name in differing else "same"
        print(f"{mark}  {name:24s} {counts[0].get(name)!s:>14} "
              f"{counts[1].get(name)!s:>14}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diff", nargs=2, metavar="RESULT")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no toolkit sources at {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness

    if args.workload == "sim-m1":
        import wl_sim as workload
    elif args.workload == "compile-cold":
        import wl_compile as workload
    else:
        import wl_serve as workload
    try:
        return workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
        try:
            harness.WORK_DIR.parent.rmdir()
        except OSError:
            pass  # another run still holds its own directory there


if __name__ == "__main__":
    sys.exit(main())
