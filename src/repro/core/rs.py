"""Sketch-based greedy seed selection ("RS", paper Alg. 5, §VI).

θ sketches = θ reverse t-step walks, each from a start node drawn
uniformly at random (with replacement); following the paper's final
choice λ_v = 1 (footnote 6), each sketch is a *single* walk and its
estimate is that walk's (truncated) end opinion.

Estimators (Eqs. 35, 42, 47):
* cumulative:  F̂(S) = (n/θ) Σ_j op_j[S]
* plurality variants:  F̂(S) = (n/θ) Σ_j ω[β(op_j)]·1[β(op_j) ≤ p]
* Copeland: pairwise duel counts over the θ samples.

``core.sketch.SketchSelector`` builds the sketches (each start drawn from
its walk's own counter stream, on the driver with no Spark session) and
runs the greedy on the driver, with every walk its own unit, ranked
against the non-target opinions of its start user.
"""
from __future__ import annotations

from repro.core.sketch import SketchSelector
from repro.graphs.graph import OpinionGraph


def RSSelector(spark, graph: OpinionGraph, target: int, t: int, score: str, *, theta: int, **kw):
    """RS (Alg. 5): ``SketchSelector`` on θ = ``theta`` walks from drawn users.

    The leading ``spark`` argument is perfbench's and ignored.
    """
    return SketchSelector(graph, target, t, score, theta=theta, **kw)
