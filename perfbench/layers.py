"""Per-layer metrics of a traced run, and the self-time table it prints.

Time metrics are span self times (see ``tracer.self_times``) averaged per op
over the spans recorded while an op ran, except the ``call`` kind, which
averages over every call because context create/stop and
``LabSession.compare`` also run between ops.  Count metrics come from the engine's own ``EngineContext``
metrics, per op.  A layer whose spans never appear in a workload is *absent*:
the table says so, the result record lists it under ``absent_layers``, and
the result line carries 0 for it because that line holds numbers only.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Any, Dict, List, Optional, Set, Tuple

from tracer import self_times

#: (metric, unit, better, source kind, source).  Kinds: ``self`` = span self
#: ms per op; ``call`` = span self ms per call; ``count`` = engine count per
#: op; ``derived`` = computed in :func:`layer_metrics`.
CATALOG: Tuple[Tuple[str, str, str, str, str], ...] = (
    # control plane of small jobs: optimizer, statistics, shuffle scans
    ("engine.optimizer.optimize_ms", "ms", "lower", "self", "engine.optimizer.optimize"),
    ("engine.optimizer.calls_per_job", "count", "lower", "derived", ""),
    ("engine.stats.annotate_ms", "ms", "lower", "self", "engine.stats.annotate"),
    ("engine.stats.key_distribution_ms", "ms", "lower", "self", "engine.stats.key_distribution"),
    ("engine.shuffle.sample_records_ms", "ms", "lower", "self", "engine.shuffle.sample_records"),
    ("engine.shuffle.partition_bytes_ms", "ms", "lower", "self", "engine.shuffle.partition_bytes"),
    ("engine.adaptive_replans_per_op", "count", "lower", "count", "adaptive_replans"),
    ("engine.scheduler.self_ms", "ms", "lower", "self", "engine.scheduler"),
    ("engine.job_cost_growth", "ratio", "lower", "derived", ""),
    # governance and services of the campaign
    ("governance.anonymize_ms", "ms", "lower", "self", "governance.anonymize"),
    ("governance.kanon_search_ms", "ms", "lower", "self", "governance.kanon_search"),
    ("services.ingestion_ms", "ms", "lower", "self", "services.ingestion"),
    ("services.preparation_ms", "ms", "lower", "self", "services.preparation"),
    ("services.analytics_ms", "ms", "lower", "self", "services.analytics"),
    ("engine.task_time_ms", "ms", "lower", "derived", ""),
    # engine context lifecycle
    ("engine.context.create_ms", "ms", "lower", "call", "engine.context.create"),
    ("engine.context.first_stage_ms", "ms", "lower", "derived", ""),
    ("engine.context.stop_ms", "ms", "lower", "call", "engine.context.stop"),
    ("labs.jobs_per_trial", "count", "lower", "derived", ""),
    # control-plane guards of a campaign
    ("core.compile_ms", "ms", "lower", "self", "core.compile"),
    ("platform.submit_self_ms", "ms", "lower", "self", "platform.submit"),
    ("core.run_self_ms", "ms", "lower", "self", "core.run"),
    ("engine.simulator.compare_ms", "ms", "lower", "self", "engine.simulator.compare"),
    ("governance.compliance_ms", "ms", "lower", "self", "governance.compliance"),
    ("labs.compare_ms", "ms", "lower", "call", "labs.compare"),
    # data plane: executor, transport, shuffle, spill
    ("engine.executor.stage_ms", "ms", "lower", "self", "engine.executor.stage"),
    ("engine.task_busy_share", "share", "higher", "derived", ""),
    ("engine.transport.publish_stage_ms", "ms", "lower", "self", "engine.transport.publish_stage"),
    ("engine.shuffle.register_external_ms", "ms", "lower", "self", "engine.shuffle.register_external"),
    ("engine.shuffle.write_ms", "ms", "lower", "self", "engine.shuffle.write"),
    ("engine.shuffle.read_ms", "ms", "lower", "self", "engine.shuffle.read"),
    ("engine.spills_per_op", "count", "lower", "count", "spills"),
    ("engine.spill_bytes_per_op", "bytes", "lower", "count", "spill_bytes"),
    ("engine.peak_shuffle_bytes", "bytes", "lower", "derived", ""),
    # counts of the work done
    ("engine.jobs_per_op", "count", "lower", "count", "jobs"),
    ("engine.stages_per_op", "count", "lower", "count", "stages"),
    ("engine.tasks_per_op", "count", "lower", "count", "tasks"),
    ("engine.records_read_per_op", "count", "lower", "count", "records_read"),
    ("engine.batches_per_op", "count", "lower", "count", "batches"),
    ("engine.shuffle_bytes_per_op", "bytes", "lower", "count", "shuffle_bytes"),
    ("engine.cache_hits_per_op", "count", "higher", "count", "cache_hits"),
    ("engine.failed_attempts_per_op", "count", "lower", "count", "failed_attempts"),
    # latency of the untraced pass; on labs-scouting the ops are 66 trials of
    # 33 classes whose light ones move with the host far more than the rest,
    # so neither percentile holds a bound there
    ("latency_p50_ms", "ms", "lower", "derived", ""),
    ("latency_p90_ms", "ms", "lower", "derived", ""),
    # tracing
    ("trace.overhead", "ratio", "higher", "derived", ""),
)


def p90(values: List[float]) -> float:
    """The 90th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _growth(latencies: List[float]) -> float:
    """Median latency of the last tenth of ops over that of the first tenth."""
    tenth = max(1, len(latencies) // 10)
    return statistics.median(latencies[-tenth:]) / statistics.median(latencies[:tenth])


def _first_stage_ms(spans: List[Any]) -> Optional[float]:
    """Mean wall time of the first executor stage of each engine context, in ms.

    A process-backend pool forks its workers at the first task it is given,
    so on that backend this stage carries the pool start; contexts run one
    after another in every workload.
    """
    creates = sorted(span[2] for span in spans if span[1] == "engine.context.create")
    stages = sorted((span[2], span[3]) for span in spans
                    if span[1] == "engine.executor.stage")
    firsts = []
    for index, created in enumerate(creates):
        until = creates[index + 1] if index + 1 < len(creates) else float("inf")
        position = bisect.bisect_left(stages, (created,))
        if position < len(stages) and stages[position][0] < until:
            start, end = stages[position]
            firsts.append(end - start)
    return statistics.mean(firsts) * 1000.0 if firsts else None


def layer_metrics(workload: str, spans: List[Any], records: List[Any],
                  plain_records: List[Any], overhead: float
                  ) -> Tuple[Dict[str, Tuple[float, str]], Set[str],
                             Dict[str, Dict[str, float]]]:
    """Every catalog metric, the absent ones, and the per-span-name table.

    ``records`` are the traced pass's ops, ``plain_records`` the untraced
    pass's: latency-shaped diagnostics come from the untraced pass.
    """
    ops = len(records)
    in_ops = [span for span in spans if span[6] is not None]
    per_op = self_times(in_ops)
    every_call = self_times(spans)
    totals: Dict[str, float] = {}
    for record in records:
        for key, value in record.counts.items():
            totals[key] = totals.get(key, 0) + value
    jobs = totals.get("jobs", 0)
    labs = workload == "labs-scouting"
    plain_ms = [record.latency_s * 1000.0 for record in plain_records]

    stage_spans = [span for span in in_ops if span[1] == "engine.executor.stage"]
    slot_seconds = sum((span[3] - span[2]) * span[7] for span in stage_spans)
    task_seconds = sum(record.task_time_s for record in records)
    derived: Dict[str, Optional[float]] = {
        "engine.optimizer.calls_per_job": (
            per_op["engine.optimizer.optimize"]["calls"] / jobs
            if jobs and "engine.optimizer.optimize" in per_op else None),
        "engine.job_cost_growth": None if labs else _growth(plain_ms),
        "engine.task_time_ms": task_seconds * 1000.0 / ops,
        "engine.context.first_stage_ms": _first_stage_ms(spans),
        "labs.jobs_per_trial": jobs / ops if labs else None,
        "latency_p50_ms": statistics.median(plain_ms),
        "latency_p90_ms": p90(plain_ms),
        "engine.task_busy_share": (task_seconds / slot_seconds
                                   if slot_seconds else None),
        "engine.peak_shuffle_bytes": float(max(record.peak_shuffle_bytes
                                               for record in records)),
        "trace.overhead": overhead,
    }

    metrics: Dict[str, Tuple[float, str]] = {}
    absent: Set[str] = set()
    for name, unit, _, kind, source in CATALOG:
        if kind == "self":
            value = per_op[source]["self_s"] * 1000.0 / ops if source in per_op else None
        elif kind == "call":
            row = every_call.get(source)
            value = row["self_s"] * 1000.0 / row["calls"] if row else None
        elif kind == "count":
            value = totals.get(source, 0) / ops
        else:
            value = derived[name]
        if value is None:
            absent.add(name)
            value = 0.0
        metrics[name] = (value, unit)

    table = {name: {"calls": row["calls"], "self_ms_per_op": row["self_s"] * 1000.0 / ops,
                     "total_ms_per_op": row["total_s"] * 1000.0 / ops}
             for name, row in per_op.items()}
    return metrics, absent, table


def render_table(workload: str, table: Dict[str, Dict[str, float]],
                 absent: Set[str]) -> str:
    """The per-layer self-time table of one workload, slowest layer first."""
    lines = [f"per-layer self time, {workload} (ms per op, spans recorded during ops)",
             f"  {'span':36s} {'calls':>8s} {'self':>10s} {'total':>10s}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_ms_per_op"]):
        lines.append(f"  {name:36s} {row['calls']:8d} {row['self_ms_per_op']:10.3f} "
                     f"{row['total_ms_per_op']:10.3f}")
    if absent:
        lines.append("absent on this workload (reported as 0 in the result line): "
                     + ", ".join(sorted(absent)))
    return "\n".join(lines)
