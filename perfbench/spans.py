"""In-memory spans and Spark job accounting for traced benchmark runs.

A span records one call into a layer: name, start, end and the span that
caused it.  Spans are kept in memory and written out once, when the run
ends.  Spark work is attributed to a method by running the method under
its own job group and reading ``statusTracker()`` right after it returns,
before Spark drops old jobs (``spark.ui.retainedJobs``).
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def spark_job_counts(sc, group: str) -> dict[str, int]:
    """Jobs, stages, completed tasks and failed tasks run under ``group``."""
    st = sc.statusTracker()
    stages: set[int] = set()
    jobs = st.getJobIdsForGroup(group)
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            # stageIds arrives as a py4j array; copy it out element-wise.
            stages.update(int(s) for s in info.stageIds)
    tasks = failed = ran = 0
    for s in stages:
        info = st.getStageInfo(s)
        if info is None:
            continue
        if info.numCompletedTasks or info.numFailedTasks:
            ran += 1
        tasks += info.numCompletedTasks
        failed += info.numFailedTasks
    return {"jobs": len(jobs), "stages": ran, "tasks": tasks, "failed_tasks": failed}


class TimedEvaluator:
    """Stand-in for ``ExactEvaluator`` that records one span per batch.

    ``greedy_dm`` only touches ``graph``, ``__call__`` and ``score_of``, so
    wrapping those is enough to count and time every exact evaluation.
    """

    def __init__(self, evaluator, tracer: Tracer) -> None:
        self.evaluator = evaluator
        self.graph = evaluator.graph
        self.tracer = tracer

    def __call__(self, seeds, cand_seeds):
        ev = self.evaluator
        ncand = len(cand_seeds)
        on_spark = ev.spark is not None and ncand > ev.local_threshold
        with self.tracer.span("dm.eval", cands=ncand, spark=on_spark):
            return ev(seeds, cand_seeds)

    def score_of(self, seeds) -> float:
        return self.evaluator.score_of(seeds)
