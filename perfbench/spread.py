"""Spread report: run the benchmark N times on one commit and judge its noise.

Usage (from the repository root)::

    python3 perfbench/spread.py --runs 10 --save .bench_out/spread-a.json
    python3 perfbench/spread.py --runs 10 --against .bench_out/spread-a.json

Each run uses another seed (``--first-seed`` upwards) and the ``run_seconds``
of ``BENCHMARK.json``; runs go round the workloads, one seed at a time, so
slow drift of the host spreads over every workload alike.  For each
end-to-end metric the report prints the median, the quartiles and the
interquartile distance as a share of the median, next to the metric's bound.
A metric whose spread exceeds its bound is flagged ``SPREAD``; one above a
third of it is marked ``wide``.  With ``--against``, each median is also
compared with the median of an earlier set and flagged ``WORSE`` when it is
worse by more than the bound.  ``setup_s`` is judged like every other
metric.  The exit status is 1 when anything is flagged or a run fails its
oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

from run import record_name

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> Tuple[dict, dict]:
    """One untraced benchmark run: its result object and its per-op record."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, capture_output=True, text=True,
                               cwd=ROOT, timeout=600, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}: "
                           f"{completed.stderr.strip()[-800:]}")
    with open(os.path.join(ROOT, ".bench_out", record_name(workload, seed, 0)),
              encoding="utf-8") as handle:
        record = json.load(handle)
    return json.loads(completed.stdout.strip().splitlines()[-1]), record


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every one)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the per-run values to this JSON file")
    parser.add_argument("--against", help="earlier --save file to compare medians with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = args.workload or [entry["name"] for entry in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    values: Dict[str, Dict[str, List[float]]] = {
        workload: {metric["name"]: [] for metric in metrics} for workload in workloads}
    flagged = False
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result, _ = run_once(workload, seed, benchmark["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed their oracle")
                flagged = True
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                flush=True)

    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)
    for workload in workloads:
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"  {'metric':16s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s}  flags")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            row = spread(values[workload][name])
            flags = []
            if row["iqr_share"] > bound:
                flags.append("SPREAD")
                flagged = True
            elif row["iqr_share"] > bound / 3:
                flags.append("wide")
            if earlier is not None and workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (row["median"] - before) / before
                worse = change if metric["better"] == "lower" else -change
                flags.append(f"vs earlier {change:+.1%}")
                if worse > bound:
                    flags.append("WORSE")
                    flagged = True
            print(f"  {name:16s} {metric['unit']:6s} {row['median']:11.4f} {row['q1']:11.4f} "
                  f"{row['q3']:11.4f} {row['iqr_share']:8.2%} {bound:6.2f}  {' '.join(flags)}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
