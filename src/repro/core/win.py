"""FJ-Vote-Win: minimum seed set for the target to win (paper Prob. 2, Alg. 2).

Algorithm 2 binary-searches k with a fresh greedy run per probe (the tests
keep that faithful form as a reference).  ``min_seeds_to_win_fast``
exploits that greedy selection is *incremental* (greedy(k') is a prefix of
greedy(k)) and that the win predicate is monotone along nested seed sets —
the target's score is non-decreasing in S while every competitor's score
is non-increasing (cumulative: unchanged; rank-based: target seeds can only
demote competitors) — so the answer is the shortest winning prefix of one
greedy sequence.  It verifies the win with *exact* opinions, as Algorithm 2
line 5 does.
"""
from __future__ import annotations

from typing import Sequence

from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import fj_diffuse_np
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

    With no competitor (r = 1) the sole candidate wins.
    """
    if graph.r == 1:
        return True
    b = fj_diffuse_np(graph.with_seeds(target, seeds), t)
    mine = score_np(b, target, score, **score_kw)
    best_other = max(
        score_np(b, x, score, **score_kw) for x in range(graph.r) if x != target
    )
    return mine > best_other


def min_seeds_to_win_fast(
    graph: OpinionGraph,
    target: int,
    t: int,
    score: str,
    sequence: Sequence[int],
    **score_kw,
) -> tuple[int, list[int]] | tuple[None, None]:
    """Shortest winning prefix of one greedy ``sequence`` (see module doc).

    Binary search over the prefix length (win predicate is monotone in the
    nested prefixes).  Returns (k*, S*) or (None, None).
    """
    sequence = list(sequence)
    if target_wins(graph, target, t, [], score, **score_kw):
        return 0, []
    if not target_wins(graph, target, t, sequence, score, **score_kw):
        return None, None
    lo, hi = 0, len(sequence)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if target_wins(graph, target, t, sequence[:mid], score, **score_kw):
            hi = mid
        else:
            lo = mid
    return hi, sequence[:hi]
