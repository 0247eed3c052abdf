"""Benchmark self-test: definitions agree and per-op counts repeat exactly.

Usage (from the repository root)::

    python3 perfbench/selftest.py                       # every workload
    python3 perfbench/selftest.py --workload shuffle-spill

It checks that ``BENCHMARK.json`` names exactly the per-layer metrics of
``layers.CATALOG``, then runs each workload twice with the same seed and
requires an identical op sequence and identical per-op engine counts, with
every op passing its oracle.  Claims resting on counts rely on this.  The
exit status is 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

from layers import CATALOG  # noqa: E402
from spread import run_once  # noqa: E402


def check_definitions(benchmark: dict) -> list:
    """Differences between BENCHMARK.json's per-layer list and the catalog."""
    declared = {(entry["name"], entry["unit"], entry["better"])
                for entry in benchmark["per_layer"]}
    produced = {(name, unit, better) for name, unit, better, _, _ in CATALOG}
    return [f"per_layer entry {entry} is not produced by layers.py"
            for entry in sorted(declared - produced)] + \
           [f"layers.py metric {entry} is missing from BENCHMARK.json"
            for entry in sorted(produced - declared)]


def check_repeatable(workload: str, seed: int, seconds: int) -> list:
    """Differences between two runs of ``workload`` with the same seed."""
    (_, first), (_, second) = (run_once(workload, seed, seconds),
                               run_once(workload, seed, seconds))
    problems = [f"{workload}: {error}" for error in first["errors"] + second["errors"]]
    if first["ops"] != second["ops"]:
        problems.append(f"{workload}: op sequences differ")
    for index, (left, right) in enumerate(zip(first["counts"], second["counts"])):
        if left != right:
            changed = {key: (left.get(key), right.get(key))
                       for key in set(left) | set(right) if left.get(key) != right.get(key)}
            problems.append(f"{workload}: op {index} ({first['ops'][index]}) "
                            f"counts differ: {changed}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to check (repeatable; default: every one)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=1,
                        help="op budget; each workload still runs its minimum op count")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    problems = check_definitions(benchmark)
    for workload in args.workload or [entry["name"] for entry in benchmark["workloads"]]:
        found = check_repeatable(workload, args.seed, args.seconds)
        print(f"{workload}: {'ok' if not found else f'{len(found)} differences'}",
              flush=True)
        problems.extend(found)
    for problem in problems[:50]:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
