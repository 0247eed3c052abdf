"""In-memory span tracer that wraps the program's public entry points from outside.

The benchmark measures layers without touching the program: :class:`Tracer`
replaces selected methods on the program's classes with thin wrappers that
record one span per call (name, start, end, parent span, thread, op id) into
a list, and restores the originals on :meth:`Tracer.uninstall`.  Spans stay
in memory until :meth:`Tracer.write` dumps them as JSON lines.

Parents are tracked per thread, so a layer's *self time* is its span's
duration minus the spans it directly caused on the same thread.  Work that
runs on another thread (thread-backend tasks) gets its own root spans there.

The wrappers survive the process backend: they are plain functions stored on
importable classes, so pickling a task or dataset still refers to classes
and methods by name, and a forked worker inherits them.  Spans a worker
process records stay in that worker's copy of the list and are dropped; the
engine's task-time and spill counters account for that work instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import operator
import threading
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: (module, class, method, span name[, detail]) of every entry point the traced
#: run wraps.  ``detail`` is a dotted attribute of the called object recorded
#: with each span: the executors' worker count, for ``engine.task_busy_share``.
SPAN_POINTS: Tuple[Tuple[str, ...], ...] = (
    ("repro.platform.api", "BDAaaSPlatform", "submit_campaign", "platform.submit"),
    ("repro.core.compiler", "CampaignCompiler", "compile", "core.compile"),
    ("repro.core.campaign", "CampaignRunner", "run", "core.run"),
    ("repro.labs.session", "LabSession", "compare", "labs.compare"),
    ("repro.governance.anonymization", "AnonymizationService", "execute",
     "governance.anonymize"),
    ("repro.governance.anonymization", "KAnonymizer", "anonymize",
     "governance.kanon_search"),
    ("repro.governance.compliance", "ComplianceChecker", "check",
     "governance.compliance"),
    ("repro.engine.simulator", "DeploymentSimulator", "compare",
     "engine.simulator.compare"),
    ("repro.engine.context", "EngineContext", "__init__", "engine.context.create"),
    ("repro.engine.context", "EngineContext", "stop", "engine.context.stop"),
    ("repro.engine.context", "EngineContext", "run_job", "engine.context.run_job"),
    ("repro.engine.optimizer", "PlanOptimizer", "optimize",
     "engine.optimizer.optimize"),
    ("repro.engine.stats", "StatsEstimator", "annotate", "engine.stats.annotate"),
    ("repro.engine.stats", "StatsEstimator", "key_distribution",
     "engine.stats.key_distribution"),
    ("repro.engine.shuffle", "ShuffleManager", "sample_records",
     "engine.shuffle.sample_records"),
    ("repro.engine.shuffle", "ShuffleManager", "reduce_partition_bytes",
     "engine.shuffle.partition_bytes"),
    ("repro.engine.shuffle", "ShuffleManager", "reduce_partition_map_bytes",
     "engine.shuffle.partition_bytes"),
    ("repro.engine.shuffle", "ShuffleManager", "write_map_output",
     "engine.shuffle.write"),
    ("repro.engine.shuffle", "ShuffleManager", "read_reduce_input",
     "engine.shuffle.read"),
    ("repro.engine.shuffle", "ShuffleManager", "register_external_map_output",
     "engine.shuffle.register_external"),
    ("repro.engine.scheduler", "DAGScheduler", "run_job", "engine.scheduler"),
    ("repro.engine.executor", "Executor", "execute_stage", "engine.executor.stage",
     "config.num_workers"),
    ("repro.engine.executor", "ProcessExecutor", "execute_stage",
     "engine.executor.stage", "config.num_workers"),
    ("repro.engine.transport", "LocalDirShuffleTransport", "publish_stage",
     "engine.transport.publish_stage"),
)

#: Modules whose service classes' ``execute`` methods form one span name each.
SERVICE_MODULES: Tuple[Tuple[str, str], ...] = (
    ("repro.services.ingestion", "services.ingestion"),
    ("repro.services.preparation", "services.preparation"),
    ("repro.services.analytics.anomaly", "services.analytics"),
    ("repro.services.analytics.association", "services.analytics"),
    ("repro.services.analytics.classification", "services.analytics"),
    ("repro.services.analytics.clustering", "services.analytics"),
    ("repro.services.analytics.descriptive", "services.analytics"),
    ("repro.services.analytics.regression", "services.analytics"),
)

#: One recorded span: (id, name, start, end, parent id or 0, thread ident,
#: op id, detail).
Span = Tuple[int, str, float, float, int, int, Optional[int], Any]


class Tracer:
    """Records spans around wrapped methods while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the op in progress; the workload sets it before each op.
        self.op_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[type, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: type, attribute: str, name: str,
             detail: Optional[str] = None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = owner.__dict__[attribute]
        tracer = self
        read_detail = operator.attrgetter(detail) if detail else None

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident(), tracer.op_id,
                                     read_detail(args[0]) if read_detail else None))

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every entry point in :data:`SPAN_POINTS` and the service modules."""
        for module_name, class_name, attribute, name, *detail in SPAN_POINTS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self.wrap(owner, attribute, name, *detail)
        for module_name, name in SERVICE_MODULES:
            module = importlib.import_module(module_name)
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == module_name \
                        and "execute" in value.__dict__:
                    self.wrap(value, "execute", name)

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread, op, detail in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent, "thread": thread,
                                         "op": op, "detail": detail}) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of the spans it
    directly caused on its own thread (children never overlap each other).
    """
    spans = list(spans)
    child_seconds: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, *_ in spans:
        if parent:
            child_seconds[parent] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, name, start, end, *_ in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_seconds.get(span_id, 0.0)
    return dict(table)
