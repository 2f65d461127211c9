"""Write ``corpus/compile_corpus.json``, the frozen compile-cold inputs.

Run once from the root of a checkout::

    python3 perfbench/freeze_corpus.py

It snapshots ``repro.difftest.generators.generate_case`` for every
language x machine pair, the six YALLL corpus programs and the
four-language multiply example, so that later generator changes
cannot shift the workload.  Each generated program carries the
observation its interpretive run produced when it was frozen; the
benchmark's decoded run must reproduce it.  Pairs the generators or
compilers refuse are listed with their error instead of being dropped
silently.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
from wl_compile import CORPUS_FILE, expected, matches, observe  # noqa: E402

VARIANTS = 6
ATTEMPTS = 24

#: How each example program takes its operands and returns a * n.
EXAMPLE_IO = {
    "simpl": ("SIMPL_SOURCE", {"R1": "a", "R2": "n"}, "R3"),
    "empl": ("EMPL_SOURCE", {}, "g_P"),
    "sstar": ("SSTAR_SOURCE", {"R1": "a", "R2": "n"}, "R3"),
    "yalll": ("YALLL_SOURCE", {"a": "a", "n": "n"}, "exit"),
}


def _error(error: BaseException) -> str:
    """The error with its program-specific constants and positions
    blanked, so one cause is listed once per pair."""
    text = re.sub(r"0x[0-9a-f]+", "0x_", str(error))
    text = re.sub(r" at line \d+, column \d+", "", text)
    return f"{type(error).__name__}: {text}"


def main() -> int:
    import random

    from repro.bench.programs import CORPUS
    from repro.difftest.generators import generate_case
    from repro.registry import (
        build_machine,
        generator_names,
        get_language,
        machine_names,
    )

    programs, refused = [], []
    for lang in generator_names():
        for machine_name in machine_names():
            machine = build_machine(machine_name)
            kept, errors = 0, {}
            for seed in range(ATTEMPTS):
                if kept == VARIANTS:
                    break
                try:
                    case = generate_case(lang, machine, 1000 + seed)
                    result = get_language(lang).compile(case.source, machine)
                    entry = {
                        "id": f"gen:{lang}:{machine_name}:{seed}",
                        "kind": "generated", "lang": lang,
                        "machine": machine_name, "source": case.source,
                        "observe": list(case.observe),
                        "physical_observe": case.physical_observe,
                        "memory": {str(a): v for a, v in case.memory.items()},
                        "mem_region": (list(case.mem_region)
                                       if case.mem_region else None),
                    }
                    gold = observe(machine, result, entry,
                                   engine="interpretive")
                    gold.pop("reader")
                    entry["expect"] = gold
                except Exception as error:  # recorded, never dropped
                    errors.setdefault(_error(error), seed)
                    continue
                programs.append(entry)
                kept += 1
            for message, seed in errors.items():
                refused.append({"lang": lang, "machine": machine_name,
                                "first_seed": 1000 + seed, "kept": kept,
                                "error": message})
    for machine_name in machine_names():
        for name in ref.CORPUS_NAMES:
            programs.append({
                "id": f"corpus:{name}:{machine_name}", "kind": "corpus",
                "lang": "yalll", "machine": machine_name, "name": name,
                "source": CORPUS[name][0],
            })
    spec = importlib.util.spec_from_file_location(
        "four_languages", HERE.parent / "examples" / "four_languages.py")
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    rng = random.Random(0)
    for lang, (attribute, inputs, result_name) in EXAMPLE_IO.items():
        for machine_name in machine_names():
            entry = {
                "id": f"example:{lang}:{machine_name}", "kind": "example",
                "lang": lang, "machine": machine_name,
                "source": getattr(example, attribute),
                "inputs": inputs, "result": result_name,
            }
            machine = build_machine(machine_name)
            try:
                result = get_language(lang).compile(entry["source"], machine)
                run_input, expect = expected(entry, rng)
                if not matches(observe(machine, result, run_input,
                                       engine="interpretive"), expect):
                    raise ValueError("wrong product")
            except Exception as error:
                refused.append({"lang": lang, "machine": machine_name,
                                "example": True, "error": _error(error)})
                continue
            programs.append(entry)
    CORPUS_FILE.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_FILE.write_text(json.dumps(
        {"programs": programs, "refused": refused}, indent=1) + "\n")
    pairs = {(p["lang"], p["machine"]) for p in programs
             if p["kind"] == "generated"}
    print(f"{len(programs)} programs ({len(pairs)} generated pairs), "
          f"{len(refused)} refusals "
          f"-> {CORPUS_FILE}")
    for item in refused:
        print(f"  refused {item['lang']:6s} {item['machine']:8s} "
              f"{item['error'][:90]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
