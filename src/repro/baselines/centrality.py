"""Centrality-based seed-selection baselines (paper §VIII-A).

* ``degree_seeds`` — Degree Centrality (DC): top-k by out-degree (the
  count of users a node directly influences; self-loops excluded).
* ``pagerank_seeds`` — PR on the *reverse* graph, so mass accumulates at
  nodes that reach many others ("more frequently reached nodes in a
  random traversal are more likely to influence other users").
* ``rwr_seeds`` — Random Walk with Restart [25]: personalized PageRank
  whose restart vector is proportional to the target candidate's initial
  opinions, biasing the ranking toward the target's support base.

All three run on the driver: one NumPy score vector over the n nodes
(``pagerank_np`` or a ``bincount`` of out-degrees), then ``top_k``.  Each
keeps a leading ``spark`` argument, unused, so that every method in
``experiments.tables`` is called the same way.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import OpinionGraph, segment_sum


def top_k(score: np.ndarray, k: int) -> list[int]:
    """The ``k`` nodes with the highest ``score``; ties go to the smallest id."""
    return np.argsort(-score, kind="stable")[:k].tolist()


def degree_seeds(spark, graph: OpinionGraph, k: int) -> list[int]:
    """Top-k out-degree nodes; zero-degree nodes follow in id order."""
    real = graph.src != graph.dst
    return top_k(np.bincount(graph.src[real], minlength=graph.n), k)


# PR/RWR damping factor c (the probability of following an edge).
DAMPING = 0.85


def _pr_edges(graph: OpinionGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-stochastic transition edges of the reverse graph (uniform over
    each node's in-edges), self-loops excluded."""
    keep = graph.src != graph.dst
    src, dst = graph.dst[keep], graph.src[keep]
    deg = np.bincount(src, minlength=graph.n)
    w = 1.0 / deg[src]
    return src, dst, w


def pagerank_np(
    graph: OpinionGraph,
    *,
    iters: int = 20,
    restart: np.ndarray | None = None,
) -> np.ndarray:
    """PR/RWR power iteration on the reverse graph:
    π ← c·πP + (1−c)·restart (dangling → restart)."""
    n = graph.n
    src, dst, w = _pr_edges(graph)
    r = np.full(n, 1.0 / n) if restart is None else restart / restart.sum()
    pi = r.copy()
    has_out = np.zeros(n, dtype=bool)
    has_out[src] = True
    for _ in range(iters):
        out = segment_sum(pi[src] * w, dst, n)
        dangling = pi[~has_out].sum()
        pi = DAMPING * (out + dangling * r) + (1.0 - DAMPING) * r
    return pi


def pagerank_seeds(spark, graph: OpinionGraph, k: int, *, iters: int = 20) -> list[int]:
    """Top-k PageRank (reverse-graph) nodes."""
    return top_k(pagerank_np(graph, iters=iters), k)


def rwr_seeds(
    spark, graph: OpinionGraph, k: int, target: int, *, iters: int = 20
) -> list[int]:
    """Top-k Random-Walk-with-Restart nodes (restart ∝ target's b0)."""
    restart = graph.b0[target] + 1e-9
    return top_k(pagerank_np(graph, iters=iters, restart=restart), k)
