"""Random-walk-based greedy seed selection ("RW", paper Alg. 4, §V).

λ reverse walks are generated once per node (empty seed set), on the
driver with no Spark job.  Every greedy round then computes *estimated*
marginal gains over the walks and truncates them at the chosen seed
(Post-Generation Truncation) — both in ``core.sketch``, with the λ walks
from one start user forming one unit whose estimate b̂_u is their mean:

* cumulative — ``gain(v) = Σ_{walks ∋ v} (1 − op) / λ``.
* plurality variants — b̂_u rises by ``δ_u(v) = Σ_{walks from u ∋ v}
  (1 − op)/λ``; the gain is the change of u's contribution ω[β]·1[β ≤ p]
  against the (exact) non-target opinions.
* Copeland — the change of the per-opponent win/loss counts.

The non-target candidates' opinions at the horizon are exact (direct
matrix–vector products), matching the paper's complexity analysis
(§V-B: extra O((r−1)tm)).  ``core.sketch.SketchSelector`` builds the
sketches; RW is its λ-walks-per-user case, and needs no Spark session.
"""
from __future__ import annotations

from repro.core.sketch import SketchSelector
from repro.graphs.graph import OpinionGraph


def RWSelector(spark, graph: OpinionGraph, target: int, t: int, score: str, *, lam: int, **kw):
    """RW (Alg. 4): ``SketchSelector`` on λ = ``lam`` walks from every user.

    The leading ``spark`` argument is perfbench's and ignored.
    """
    return SketchSelector(graph, target, t, score, lam=lam, **kw)
