"""Friedkin–Johnsen / DeGroot opinion diffusion (paper §II-A, Eq. 2).

One FJ step for candidate q:

    b_j^(t+1) = (1 − d_j) · Σ_i b_i^(t) · w_ij  +  d_j · b_j^(0)

DeGroot is the special case d ≡ 0.  Nodes without in-neighbors carry an
implicit self-loop (see ``OpinionGraph``), making W column-stochastic and
the update uniform across all nodes.

``fj_diffuse_np`` is the exact NumPy diffusion, one ``spmv_dst`` per step
for all candidates at once.  The win check, the sandwich bounds, the
exact evaluator's ``score_of`` and the tables run it, and the DuckDB
oracle tests check it against t FJ steps written as SQL.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import OpinionGraph, spmv_dst


def fj_diffuse_np(graph: OpinionGraph, t: int, *, cand: int | None = None) -> np.ndarray:
    """Exact opinions at horizon ``t`` from ``graph.b0`` (NumPy reference).

    Returns ``(r, n)`` (or ``(n,)`` when ``cand`` is given).
    """
    if cand is None:
        b0, d = graph.b0, graph.d
    else:
        b0, d = graph.b0[cand], graph.d[cand]
    b = b0.copy()
    for _ in range(t):
        b = (1.0 - d) * spmv_dst(graph, b) + d * b0
    return b


def opinions_at_horizon_np(
    graph: OpinionGraph, t: int, target: int, seeds
) -> np.ndarray:
    """``B^(t)[S]``: all candidates' opinions with seeds applied to target."""
    return fj_diffuse_np(graph.with_seeds(target, seeds), t)
