"""Tests for FJ-Vote-Win (Prob. 2, Alg. 2) — repro.core.win."""
import numpy as np
import pytest

from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.win import min_seeds_to_win_fast, target_wins
from repro.graphs.generators import random_instance, running_example
from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import opinions_at_horizon_np
from repro.voting.scores import SCORES, score_np


def _sole_candidate():
    """running_example() with only the target's row of b0 and d (r = 1)."""
    g = running_example()
    return OpinionGraph.from_edges(g.n, g.src, g.dst, g.w, g.b0[:1], g.d[:1])


def min_seeds_to_win(graph, target, t, score, selector, *, k_max=None):
    """Algorithm 2 as written: binary search l = 0, u = n, selector(k) per probe.

    The reference for ``min_seeds_to_win_fast``.  Returns (k*, S*), or
    (None, None) if the target cannot win with ``k_max`` (default n) seeds.
    """
    if target_wins(graph, target, t, [], score):
        return 0, []
    lo, hi = 0, k_max if k_max is not None else graph.n
    best = selector(hi)
    if not target_wins(graph, target, t, best, score):
        return None, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = selector(mid)
        if target_wins(graph, target, t, s, score):
            hi, best = mid, s
        else:
            lo = mid
    return hi, best


def _greedy_seq(g, target, t, score, k):
    ev = ExactEvaluator(None, g, target, t, score)
    seeds, _ = greedy_dm(ev, k, celf=(score == "cumulative"))
    return seeds


class TestTargetWins:
    @pytest.mark.parametrize("score", SCORES)
    def test_sole_candidate_wins(self, score):
        # r = 1: no competitor to beat, with or without seeds.
        g = _sole_candidate()
        assert target_wins(g, 0, 1, [], score, p=2)
        assert target_wins(g, 0, 3, [2], score, p=2)

    def test_running_example_plurality(self):
        g = running_example()
        # Table I: no seeds → 2 vs 2 (tie → not a strict win).
        assert not target_wins(g, 0, 1, [], "plurality")
        # Seeding node 2 → plurality 4 vs 0 → win.
        assert target_wins(g, 0, 1, [2], "plurality")

    def test_strictness(self):
        g = running_example()
        # Copeland with {} : 0 for both candidates → no strict winner.
        assert not target_wins(g, 0, 1, [], "copeland")

    def test_cumulative_win(self):
        g = running_example()
        # c2 cumulative at t=1 = 0.35+0.75+0.775+0.9 = 2.775 > 2.55 ({}).
        assert not target_wins(g, 0, 1, [], "cumulative")
        assert target_wins(g, 0, 1, [0, 2], "cumulative")  # 3.90 > 2.775


class TestMonotonicity:
    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_win_predicate_monotone_along_greedy_prefix(self, score):
        """The fast path's core assumption, checked exhaustively."""
        g = random_instance(25, r=2, seed=0, avg_deg=2.5)
        seq = _greedy_seq(g, 0, 2, score, 10)
        wins = [target_wins(g, 0, 2, seq[:i], score) for i in range(11)]
        # Once true, stays true.
        first = wins.index(True) if True in wins else None
        if first is not None:
            assert all(wins[first:])

    def test_competitor_scores_nonincreasing(self):
        g = random_instance(25, r=3, seed=1)
        seq = _greedy_seq(g, 0, 2, "plurality", 8)
        prev = None
        for i in range(9):
            b = opinions_at_horizon_np(g, 2, 0, seq[:i])
            comp = max(score_np(b, x, "plurality") for x in [1, 2])
            if prev is not None:
                assert comp <= prev + 1e-9
            prev = comp


class TestMinSeeds:
    def test_fast_path_finds_minimum_prefix(self):
        g = random_instance(25, r=2, seed=2, avg_deg=2.5)
        seq = _greedy_seq(g, 0, 2, "plurality", 25)
        kstar, seeds = min_seeds_to_win_fast(g, 0, 2, "plurality", seq)
        if kstar is None:
            pytest.skip("target cannot win on this instance")
        assert target_wins(g, 0, 2, seeds, "plurality")
        if kstar > 0:
            assert not target_wins(g, 0, 2, seq[: kstar - 1], "plurality")

    def test_fast_equals_faithful_binary_search(self):
        g = random_instance(20, r=2, seed=3, avg_deg=2.5)
        t, score = 2, "plurality"
        seq = _greedy_seq(g, 0, t, score, 20)
        k_fast, _ = min_seeds_to_win_fast(g, 0, t, score, seq)
        k_slow, _ = min_seeds_to_win(
            g, 0, t, score, lambda k: seq[:k], k_max=20
        )
        assert k_fast == k_slow

    def test_already_winning_needs_zero(self):
        g = running_example()
        # Flip target to c2 (already ahead at t=1 on cumulative).
        assert min_seeds_to_win_fast(g, 1, 1, "cumulative", [0, 1, 2, 3])[0] == 0
        assert min_seeds_to_win(g, 1, 1, "cumulative", lambda k: list(range(k)))[0] == 0

    def test_sole_candidate_needs_zero(self):
        def selector(k):
            raise AssertionError("a sole candidate needs no seeds")

        g = _sole_candidate()
        assert min_seeds_to_win(g, 0, 1, "plurality", selector) == (0, [])

    def test_sole_candidate_fast_needs_zero(self):
        g = _sole_candidate()
        assert min_seeds_to_win_fast(g, 0, 1, "plurality", [0, 1, 2, 3]) == (0, [])

    def test_unwinnable_returns_none(self):
        g = running_example()
        # Empty sequence and target behind → cannot win.
        assert min_seeds_to_win_fast(g, 0, 1, "cumulative", [])[0] is None

    def test_running_example_plurality_needs_one(self):
        g = running_example()
        seq = _greedy_seq(g, 0, 1, "plurality", 4)
        kstar, seeds = min_seeds_to_win_fast(g, 0, 1, "plurality", seq)
        assert kstar == 1 and seeds == [2]
