"""Random-walk-based greedy seed selection ("RW", paper Alg. 4, §V).

λ reverse walks are generated once per node (empty seed set) by Spark and
collected to the driver once.  Every greedy round then computes
*estimated* marginal gains over the walks and truncates them at the
chosen seed (Post-Generation Truncation) — both in ``core.sketch``, with
the λ walks from one start user forming one unit whose estimate b̂_u is
their mean:

* cumulative — ``gain(v) = Σ_{walks ∋ v} (1 − op) / λ``.
* plurality variants — b̂_u rises by ``δ_u(v) = Σ_{walks from u ∋ v}
  (1 − op)/λ``; the gain is the change of u's contribution ω[β]·1[β ≤ p]
  against the (exact) non-target opinions.
* Copeland — the change of the per-opponent win/loss counts.

The non-target candidates' opinions at the horizon are exact (direct
matrix–vector products), matching the paper's complexity analysis
(§V-B: extra O((r−1)tm)).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.dm import others_at_horizon
from repro.core.sketch import SketchSelector, SketchSet, collect_sketches
from repro.graphs.graph import OpinionGraph
from repro.opinion.walks import generate_walks


class RWSelector(SketchSelector):
    """Greedy seed selection on pre-generated reverse walks."""

    def __init__(
        self,
        spark: SparkSession,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        *,
        lam: int = 50,
        p: int = 1,
        omega=None,
        seed: int = 0,
    ):
        self.walks = generate_walks(spark, graph, target, t, lam=lam, seed=seed)
        table, nodes, offsets = collect_sketches(self.walks, "walk_id", "path")
        self.sketches = SketchSet(
            graph.n,
            nodes,
            offsets,
            table.column("op").to_numpy(),
            score=score,
            unit=table.column("start").to_numpy(),
            per_unit=lam,
            others=None if score == "cumulative" else others_at_horizon(graph, target, t),
            p=p,
            omega=omega,
        )
