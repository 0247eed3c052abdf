"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload labs-scouting --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.  ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics and ``trace.overhead``.  The last line of standard output is the
result object; a per-op record (op sequence, engine counts, latencies) is
written under ``.bench_out/`` in the repository root, next to the span file
of a traced run.  The program is imported from ``src/`` of the same
checkout; without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

#: Process start, taken before the program is imported (``setup_s`` origin).
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Tuple  # noqa: E402

from layers import layer_metrics, render_table  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Set-ups measured per untraced run: this process plus fresh probe processes.
SETUP_SAMPLES = 7


def _prepare_environment() -> None:
    """Keep every file the run writes (spills included) inside the checkout."""
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with status 2."""
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT}/src: {error}",
              file=sys.stderr)
        sys.exit(2)
    source = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(source):
        print(f"perfbench: imported repro from {repro.__file__}, not from {source}",
              file=sys.stderr)
        sys.exit(2)


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of every reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _probe_setup(workload: str, seed: int, seconds: int) -> float:
    """Set-up time measured by a fresh process (its own import and warm-up)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=170, check=False, cwd=ROOT)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
    return float(completed.stdout.strip().splitlines()[-1])


def _summary(records) -> dict:
    return {"attempted": len(records),
            "failed": sum(1 for record in records if not record.ok)}


def record_name(workload: str, seed: int, trace: int) -> str:
    """File name, under ``.bench_out/``, of one run's per-op record."""
    return f"result-{workload}-seed{seed}-trace{trace}.json"


def _write_record(name: str, payload: dict) -> None:
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def _op_log(records) -> dict:
    return {"ops": [record.label for record in records],
            "counts": [record.counts for record in records],
            "latency_s": [record.latency_s for record in records],
            "errors": [f"{record.label}: {record.error}"
                       for record in records if not record.ok][:20]}


def _timed_pass(workload) -> Tuple[list, float, float]:
    """Set up, run and tear down ``workload``.

    Returns the op records, the timed phase's wall seconds and the
    ``perf_counter`` reading at which set-up ended.
    """
    workload.setup()
    ready = time.perf_counter()
    try:
        records = workload.run()
        return records, time.perf_counter() - ready, ready
    finally:
        workload.teardown()


def run_untraced(args, workload_class) -> dict:
    """End-to-end metrics of one untraced run."""
    records, wall, ready = _timed_pass(workload_class(args.seed, args.seconds))
    peak_rss = _peak_rss_mb()
    setups = [ready - _STARTED] + [_probe_setup(args.workload, args.seed, args.seconds)
                                   for _ in range(SETUP_SAMPLES - 1)]
    summary = _summary(records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(records) / wall, "1/s"),
        "ok_op_share": ((summary["attempted"] - summary["failed"])
                        / summary["attempted"], "share"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    _write_record(record_name(args.workload, args.seed, 0),
                  dict(_op_log(records), workload=args.workload, seed=args.seed,
                       seconds=args.seconds, setup_samples_s=setups,
                       metrics={name: value for name, (value, _) in metrics.items()}))
    return dict(summary, metrics=metrics)


def run_traced(args, workload_class) -> dict:
    """Per-layer metrics: an untraced pass, then the same ops traced."""
    plain_records, plain_wall, _ = _timed_pass(workload_class(args.seed, args.seconds))
    tracer = Tracer()
    tracer.install()
    try:
        records, wall, _ = _timed_pass(
            workload_class(args.seed, args.seconds, tracer=tracer))
    finally:
        tracer.uninstall()

    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_path)
    overhead = (len(records) / wall) / (len(plain_records) / plain_wall)
    metrics, absent, table = layer_metrics(args.workload, tracer.spans, records,
                                           plain_records, overhead)
    print(render_table(args.workload, table, absent))
    print(f"spans: {span_path}")
    _write_record(record_name(args.workload, args.seed, 1),
                  dict(_op_log(records), workload=args.workload, seed=args.seed,
                       seconds=args.seconds, absent_layers=sorted(absent),
                       self_time_table=table,
                       metrics={name: value for name, (value, _) in metrics.items()}))
    untraced_summary, traced_summary = _summary(plain_records), _summary(records)
    return {"attempted": untraced_summary["attempted"] + traced_summary["attempted"],
            "failed": untraced_summary["failed"] + traced_summary["failed"],
            "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up seconds and exit")
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload_class = WORKLOADS[args.workload]
    if workload_class.ONE_CPU:
        # before the re-exec below, so set-up is timed on that CPU too;
        # the set-up probes inherit the affinity
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # String hashing is salted per process, and set iteration order reaches
    # the engine's sampled shuffle-byte estimates; tie the salt to the seed
    # so one seed always gives the same per-op counts.
    hash_seed = str(args.seed % 4294967296)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + sys.argv[1:])
    _prepare_environment()
    _import_program()
    if args.setup_probe:
        workload = workload_class(args.seed, args.seconds)
        workload.setup()
        elapsed = time.perf_counter() - _STARTED
        workload.teardown()
        print(repr(elapsed))
        return

    result = (run_traced if args.trace else run_untraced)(args, workload_class)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
