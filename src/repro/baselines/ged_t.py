"""GED-T baseline: the greedy of Gionis et al. [25] adapted to a finite
time horizon (paper §VIII-A, Appendix A).

GED-T maximizes the *cumulative* opinion sum at the horizon via exact
opinion recomputation — identical in objective to our DM with the
cumulative score but **without CELF** (the paper reports GED-T ≡ DM in
accuracy for the cumulative score, and ~2 orders of magnitude slower
than RS).  When used as a seeder for the rank-based scores it still
optimizes the cumulative objective, which is why it underperforms there
(paper §VIII-C).  The leading ``spark`` argument is unused, as in
``baselines.centrality``.
"""
from __future__ import annotations

from repro.core.dm import ExactEvaluator, greedy_dm
from repro.graphs.graph import OpinionGraph


def ged_t_seeds(
    spark,
    graph: OpinionGraph,
    target: int,
    t: int,
    k: int,
) -> list[int]:
    """Greedy cumulative-score seeds via exact evaluation, no CELF."""
    ev = ExactEvaluator(spark, graph, target, t, "cumulative")
    seeds, _ = greedy_dm(ev, k, celf=False)
    return seeds
