"""Sketch-based greedy seed selection ("RS", paper Alg. 5, §VI).

θ sketches = θ reverse t-step walks, each from a start node drawn
uniformly at random (with replacement); following the paper's final
choice λ_v = 1 (footnote 6), each sketch is a *single* walk and its
estimate is that walk's (truncated) end opinion.

Estimators (Eqs. 35, 42, 47):
* cumulative:  F̂(S) = (n/θ) Σ_j op_j[S]
* plurality variants:  F̂(S) = (n/θ) Σ_j ω[β(op_j)]·1[β(op_j) ≤ p]
* Copeland: pairwise duel counts over the θ samples.

Spark generates the sketches (``generate_walks(theta=...)``, each start
drawn from its walk's own counter stream); the greedy runs on the driver in
``core.sketch`` with every sketch its own unit, ranked against the
non-target opinions of its start user.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.dm import others_at_horizon
from repro.core.sketch import SketchSelector, SketchSet, collect_sketches
from repro.graphs.graph import OpinionGraph
from repro.opinion.walks import generate_walks


class RSSelector(SketchSelector):
    """Greedy seed selection on θ uniformly-sampled sketches."""

    def __init__(
        self,
        spark: SparkSession,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        *,
        theta: int,
        p: int = 1,
        omega=None,
        seed: int = 0,
    ):
        self.scale = float(graph.n) / float(theta)
        self.walks = generate_walks(spark, graph, target, t, theta=theta, seed=seed)
        table, nodes, offsets = collect_sketches(self.walks, "walk_id", "path")
        others = None
        if score != "cumulative":
            others = others_at_horizon(graph, target, t)[:, table.column("start").to_numpy()]
        self.sketches = SketchSet(
            graph.n,
            nodes,
            offsets,
            table.column("op").to_numpy(),
            score=score,
            others=others,
            p=p,
            omega=omega,
            scale=self.scale,
        )
