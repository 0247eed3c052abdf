"""The benchmark's closed-loop workloads.

Each workload is driven by one client in this process.  It builds its inputs
from the seed, runs a fixed number of operations (never a fixed duration)
and checks every op against an oracle.  An op that raises or returns a wrong
answer is recorded as failed, not aborted.

* ``labs-scouting`` — the paper's Labs use case: cohorts of trainees sweep
  every option of every design dimension of the five built-in challenges.
* ``interactive-jobs`` — small 2,000-row jobs on one long-lived thread-backend
  context; control-plane bound, and the per-job cost grows with the number
  of jobs the context has served.
* ``shuffle-spill`` — ``group_by_key`` over ~100k pairs on the process backend
  with a 256 KiB shuffle memory cap; data-plane bound, spills every job.

``BENCHMARK.json`` gates ``labs-scouting`` and ``shuffle-spill``;
``interactive-jobs`` runs by name only.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random
import time
from typing import Any, Dict, List, Optional, Tuple

#: Per-op engine counts: result key -> key of ``merge_job_metrics``.  These
#: repeat exactly across runs with the same seed (see ``selftest.py``).
COUNT_KEYS: Tuple[Tuple[str, str], ...] = (
    ("jobs", "num_jobs"),
    ("stages", "num_stages"),
    ("tasks", "num_tasks"),
    ("records_read", "records_read"),
    ("batches", "batches_processed"),
    ("shuffle_bytes", "shuffle_bytes"),
    ("cache_hits", "cache_hits"),
    ("failed_attempts", "num_failed_attempts"),
    ("adaptive_replans", "adaptive_replans"),
    ("spills", "spills"),
    ("spill_bytes", "spill_bytes"),
)

#: Labs indicators derived from wall-clock time; every other indicator of a
#: trial must be identical in every cohort.
TIMING_INDICATORS = frozenset({
    "execution_time_s", "total_task_time_s", "training_time_s",
    "estimated_cost_usd", "estimated_wall_clock_s", "mean_latency_s",
    "max_latency_s", "throughput_records_per_s",
})


@dataclasses.dataclass
class OpRecord:
    """One timed op: what ran, how long it took, whether its answer was right."""

    label: str
    latency_s: float
    ok: bool
    counts: Dict[str, int]
    #: Engine task time and shuffle high-water mark; timing/concurrency
    #: dependent, so kept out of ``counts``.
    task_time_s: float = 0.0
    peak_shuffle_bytes: int = 0
    error: str = ""


def profile_counts(profile: Dict[str, float]) -> Dict[str, int]:
    """The repeatable per-op counts of a ``merge_job_metrics`` profile."""
    return {name: int(profile.get(key, 0)) for name, key in COUNT_KEYS}


class Workload:
    """Base of the workloads.

    ``setup`` builds inputs and references and runs one warm-up op; ``run``
    executes the fixed op sequence and returns one :class:`OpRecord` per op;
    ``teardown`` releases engine resources.  ``tracer`` (or ``None``) has its
    ``op_id`` set around each op so spans can be attributed.
    """

    name = ""
    #: Run the whole benchmark process on one CPU.
    ONE_CPU = False

    def __init__(self, seed: int, seconds: int, tracer: Any = None):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer

    def _begin(self, index: Optional[int]) -> None:
        if self.tracer is not None:
            self.tracer.op_id = index

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> List[OpRecord]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# labs-scouting
# ---------------------------------------------------------------------------

class LabsScouting(Workload):
    """Cohorts of trainees sweeping the five built-in challenges.

    One cohort is 33 trials: every option of every design dimension, the
    other dimensions at their defaults.  Each challenge is one
    :class:`LabSession` with a fresh trainee account that ends with
    ``compare()``.  The seed sets the engine seed of every campaign and the
    order of the trials inside each session.  The op is one
    ``LabSession.run_option`` call; every campaign builds and stops its own
    engine context inside it.
    """

    name = "labs-scouting"
    #: Nominal trials per second of ``--seconds``; at least two cohorts run
    #: so the cross-cohort oracle always has something to compare.
    NOMINAL_OPS_PER_S = 1.9
    MIN_COHORTS = 2
    #: Campaigns run short, GIL-bound thread-backend stages.  Left free on a
    #: 2-CPU host, the interpreter lock moved between the CPUs and runs were
    #: 15-25% slower and about twice as noisy as on one CPU.
    ONE_CPU = True
    WARM_UP = ("energy-anomaly", {})

    def setup(self) -> None:
        from repro import BDAaaSPlatform, build_default_challenges
        from repro.labs import merge_spec

        self.platform = BDAaaSPlatform()
        self.challenges = {}
        for challenge in build_default_challenges().challenges:
            spec = merge_spec(challenge.spec, {"deployment": {"seed": self.seed}})
            self.challenges[challenge.key] = dataclasses.replace(
                challenge, base_spec=tuple(spec.items()))
        trials_per_cohort = sum(len(dimension.options)
                                for challenge in self.challenges.values()
                                for dimension in challenge.dimensions)
        cohorts = max(self.MIN_COHORTS, round(
            self.seconds * self.NOMINAL_OPS_PER_S / trials_per_cohort))
        # Sessions keep the catalogue order, so the largest trials (and the
        # run history the platform retains) land at the same stage of every
        # run and peak RSS stays comparable across seeds.
        rng = random.Random(f"labs-scouting:{self.seed}")
        self.plan: List[List[Tuple[str, List[Tuple[str, str]]]]] = []
        for _ in range(cohorts):
            sessions = []
            for key in sorted(self.challenges):
                trials = [(dimension.key, option)
                          for dimension in self.challenges[key].dimensions
                          for option in dimension.option_keys]
                rng.shuffle(trials)
                sessions.append((key, trials))
            self.plan.append(sessions)
        #: (challenge, dimension, option) -> indicators seen in the first cohort.
        self.reference: Dict[Tuple[str, str, str], Dict[str, float]] = {}
        key, selections = self.WARM_UP
        session = self._session("warm-up", key)
        trial = session.run_option(selections)
        if not trial.succeeded:
            raise RuntimeError(f"labs warm-up trial failed: {trial.error}")

    def _session(self, account: str, challenge_key: str):
        from repro import LabSession

        user = self.platform.register_user(f"trainee-{account}-{challenge_key}")
        return LabSession(self.platform, user, self.challenges[challenge_key])

    def run(self) -> List[OpRecord]:
        records: List[OpRecord] = []
        for cohort_index, sessions in enumerate(self.plan):
            for challenge_key, trials in sessions:
                session = self._session(f"c{cohort_index}", challenge_key)
                for dimension, option in trials:
                    self._begin(len(records))
                    started = time.perf_counter()
                    trial = session.run_option({dimension: option})
                    latency = time.perf_counter() - started
                    self._begin(None)
                    records.append(self._record(
                        (challenge_key, dimension, option), trial, latency))
                session.compare()
        return records

    def _record(self, key: Tuple[str, str, str], trial: Any,
                latency: float) -> OpRecord:
        label = "{}:{}={}".format(*key)
        if not trial.succeeded:
            return OpRecord(label, latency, False, {}, error=trial.error)
        run = trial.run
        profile = run.execution_profile
        record = OpRecord(label, latency, True, profile_counts(profile),
                          task_time_s=profile.get("total_task_time_s", 0.0),
                          peak_shuffle_bytes=int(profile.get("peak_shuffle_bytes", 0)))
        error = self._check(key, run)
        if error:
            record.ok, record.error = False, error
        return record

    def _check(self, key: Tuple[str, str, str], run: Any) -> str:
        """Oracle: the spec's size was processed, indicators repeat across cohorts."""
        source = run.spec["source"]
        indicators = run.indicator_values
        if source.get("streaming"):
            max_batches = run.spec["deployment"].get("max_batches")
            expected = min(source["num_records"], max_batches * source["batch_size"])
            processed = indicators.get("total_input_records")
        else:
            expected = source["num_records"]
            processed = indicators.get("records_processed")
        if processed != expected:
            return f"processed {processed} records, spec declares {expected}"
        values = {name: value for name, value in indicators.items()
                  if name.split(".")[-1] not in TIMING_INDICATORS}
        reference = self.reference.setdefault(key, values)
        if values != reference:
            changed = sorted(name for name in set(values) | set(reference)
                             if values.get(name) != reference.get(name))
            return f"indicators differ from the first cohort: {changed[:5]}"
        return ""


# ---------------------------------------------------------------------------
# engine workloads on one long-lived context
# ---------------------------------------------------------------------------

def _keep(row: Dict[str, Any]) -> bool:
    return row["keep"]


def _scale(row: Dict[str, Any]) -> Dict[str, Any]:
    return {"key": row["key"], "value": row["value"] * 1.5}


def _to_pair(row: Dict[str, Any]) -> Tuple[str, float]:
    return row["key"], row["value"]


def _group_summary(item: Tuple[int, List[float]]) -> Tuple[int, int, float]:
    key, values = item
    return key, len(values), sum(values)


def _same_sums(expected: Dict[Any, Tuple[float, ...]],
               actual: Dict[Any, Tuple[float, ...]]) -> bool:
    """Exact keys and integer fields; float fields within a relative 1e-9."""
    if expected.keys() != actual.keys():
        return False
    for key, want in expected.items():
        got = actual[key]
        if len(got) != len(want):
            return False
        for left, right in zip(want, got):
            if isinstance(left, int):
                if left != right:
                    return False
            elif not math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9):
                return False
    return True


class EngineWorkload(Workload):
    """One context serving the same seeded job ``ops`` times."""

    #: At least this many ops, so ten latency samples lie beyond p90.
    MIN_OPS = 100

    def engine_config(self):
        raise NotImplementedError

    def make_input(self, rng: random.Random) -> List[Any]:
        raise NotImplementedError

    def reference_of(self, data: List[Any]) -> Dict[Any, Tuple[float, ...]]:
        raise NotImplementedError

    def job(self) -> List[Any]:
        raise NotImplementedError

    def answer_of(self, output: List[Any]) -> Dict[Any, Tuple[float, ...]]:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.engine import EngineContext

        self.ops = max(self.MIN_OPS, round(self.seconds * self.NOMINAL_OPS_PER_S))
        self.data = self.make_input(random.Random(f"{self.name}:{self.seed}"))
        self.reference = self.reference_of(self.data)
        self.ctx = EngineContext(self.engine_config(), name=self.name)
        warm = self._op("warm-up")
        if not warm.ok:
            raise RuntimeError(f"{self.name} warm-up op failed: {warm.error}")

    def _op(self, label: str) -> OpRecord:
        from repro.engine import merge_job_metrics

        before = len(self.ctx.metrics.jobs)
        started = time.perf_counter()
        try:
            output = self.job()
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            return OpRecord(label, time.perf_counter() - started, False, {},
                            error=f"{type(error).__name__}: {error}")
        latency = time.perf_counter() - started
        profile = merge_job_metrics(self.ctx.metrics.jobs[before:])
        ok = _same_sums(self.reference, self.answer_of(output))
        return OpRecord(label, latency, ok, profile_counts(profile),
                        task_time_s=profile["total_task_time_s"],
                        peak_shuffle_bytes=int(profile["peak_shuffle_bytes"]),
                        error="" if ok else "answer differs from the reference")

    def run(self) -> List[OpRecord]:
        records = []
        for index in range(self.ops):
            self._begin(index)
            records.append(self._op(f"job-{index}"))
            self._begin(None)
        return records

    def teardown(self) -> None:
        self.ctx.stop()


class InteractiveJobs(EngineWorkload):
    """Small filter→map→(key, value)→reduce_by_key→collect jobs, all in memory."""

    name = "interactive-jobs"
    #: Measured over a whole 2,500-job run: the per-job cost grows with the
    #: jobs the context has served, so the rate falls as the run lengthens.
    NOMINAL_OPS_PER_S = 62
    ROWS = 2000
    KEYS = 50

    def engine_config(self):
        from repro.config import EngineConfig
        return EngineConfig(num_workers=2, executor_backend="thread", seed=self.seed)

    def make_input(self, rng: random.Random) -> List[Any]:
        return [{"id": index, "key": f"k{rng.randrange(self.KEYS):02d}",
                 "value": round(rng.uniform(0.0, 100.0), 3),
                 "keep": rng.random() < 0.8}
                for index in range(self.ROWS)]

    def reference_of(self, data: List[Any]) -> Dict[Any, Tuple[float, ...]]:
        sums: Dict[str, float] = {}
        for row in data:
            if row["keep"]:
                sums[row["key"]] = sums.get(row["key"], 0.0) + row["value"] * 1.5
        return {key: (value,) for key, value in sums.items()}

    def job(self) -> List[Any]:
        return (self.ctx.parallelize(self.data, 4).filter(_keep).map(_scale)
                .map(_to_pair).reduce_by_key(operator.add).collect())

    def answer_of(self, output: List[Any]) -> Dict[Any, Tuple[float, ...]]:
        answer = dict(output)
        if len(answer) != len(output):
            return {}
        return {key: (value,) for key, value in answer.items()}


class ShuffleSpill(EngineWorkload):
    """``group_by_key`` of ~100k pairs, 4 map → 8 reduce partitions, under a cap."""

    name = "shuffle-spill"
    NOMINAL_OPS_PER_S = 3.5
    PAIRS = 100_000
    KEYS = 5000
    MAP_PARTITIONS = 4
    REDUCE_PARTITIONS = 8
    SHUFFLE_MEMORY_BYTES = 256 * 1024

    def engine_config(self):
        from repro.config import EngineConfig
        return EngineConfig(num_workers=2, executor_backend="process",
                            shuffle_memory_bytes=self.SHUFFLE_MEMORY_BYTES,
                            seed=self.seed)

    def make_input(self, rng: random.Random) -> List[Any]:
        return [(rng.randrange(self.KEYS), rng.randrange(100_000) / 100)
                for _ in range(self.PAIRS)]

    def reference_of(self, data: List[Any]) -> Dict[Any, Tuple[float, ...]]:
        groups: Dict[int, List[float]] = {}
        for key, value in data:
            groups.setdefault(key, []).append(value)
        return {key: (len(values), sum(values)) for key, values in groups.items()}

    def job(self) -> List[Any]:
        return (self.ctx.parallelize(self.data, self.MAP_PARTITIONS)
                .group_by_key(self.REDUCE_PARTITIONS).map(_group_summary).collect())

    def answer_of(self, output: List[Any]) -> Dict[Any, Tuple[float, ...]]:
        answer = {key: (size, total) for key, size, total in output}
        return answer if len(answer) == len(output) else {}


WORKLOADS = {workload.name: workload
             for workload in (LabsScouting, InteractiveJobs, ShuffleSpill)}
