"""FJ-Vote-Win: minimum seed set for the target to win (paper Prob. 2, Alg. 2).

Algorithm 2 binary-searches k with a fresh greedy run per probe (the tests
keep that faithful form as a reference).  ``min_seeds_to_win`` exploits
that greedy selection is *incremental* (greedy(k') is a prefix of
greedy(k)) and that the win predicate is monotone along nested seed sets —
the target's score is non-decreasing in S while every competitor's score
is non-increasing (cumulative: unchanged; rank-based: target seeds can only
demote competitors) — so the answer is the shortest winning prefix of one
greedy sequence.  It scans the prefixes k = 0, 1, … of one resumable
``select(k)`` and verifies each with *exact* opinions, as Algorithm 2
line 5 does.
"""
from __future__ import annotations

from typing import Callable, Sequence

from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import fj_diffuse_np, unseeded_horizon_np
from repro.voting.scores import score_np


def target_wins(
    graph: OpinionGraph,
    target: int,
    t: int,
    seeds: Sequence[int],
    score: str,
    **score_kw,
) -> bool:
    """Exact check: F(B^(t)[S], c_q) > max over competitors (Eq. 9).

    Seeds move only the target's row, so only that row is diffused; the
    competitors' rows are read from the kept B^(t)[∅]
    (``unseeded_horizon_np``).  A one-row diffusion is its row of the r-row
    one, bit for bit.  With no competitor (r = 1) the sole candidate wins.
    """
    if graph.r == 1:
        return True
    b = unseeded_horizon_np(graph, t).copy()
    b[target] = fj_diffuse_np(graph.with_seeds(target, seeds), t, cand=target)
    mine = score_np(b, target, score, **score_kw)
    best_other = max(
        score_np(b, x, score, **score_kw) for x in range(graph.r) if x != target
    )
    return mine > best_other


def min_seeds_to_win(
    graph: OpinionGraph,
    target: int,
    t: int,
    score: str,
    select: Callable[[int], Sequence[int]],
    k_max: int,
    **score_kw,
) -> int | None:
    """The smallest k ≤ ``k_max`` whose prefix ``select(k)`` of one seed
    sequence wins (see module doc), or ``None`` if none does."""
    for k in range(k_max + 1):
        if target_wins(graph, target, t, select(k), score, **score_kw):
            return k
    return None
