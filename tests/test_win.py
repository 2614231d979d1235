"""Tests for FJ-Vote-Win (Prob. 2, Alg. 2) — repro.core.win."""
import itertools

import numpy as np
import pytest

from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.win import min_seeds_to_win, target_wins
from repro.graphs.generators import random_instance, running_example
from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np
from repro.voting.scores import SCORES, score_np


def _sole_candidate():
    """running_example() with only the target's row of b0 and d (r = 1)."""
    g = running_example()
    return OpinionGraph.from_edges(g.n, g.src, g.dst, g.w, g.b0[:1], g.d[:1])


def alg2_min_seeds(graph, target, t, score, selector, *, k_max=None):
    """Algorithm 2 as written: binary search l = 0, u = n, selector(k) per probe.

    The reference for ``min_seeds_to_win``.  Returns (k*, S*), or
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


def _prefixes(seq):
    """A ``select(k)`` over a fixed sequence."""
    return lambda k: list(seq[:k])


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
        kstar = min_seeds_to_win(g, 0, 2, "plurality", _prefixes(seq), 25)
        if kstar is None:
            pytest.skip("target cannot win on this instance")
        assert target_wins(g, 0, 2, seq[:kstar], "plurality")
        if kstar > 0:
            assert not target_wins(g, 0, 2, seq[: kstar - 1], "plurality")

    def test_fast_equals_faithful_binary_search(self):
        """The scan of one greedy sequence finds Alg. 2's k*, the binary
        search with a greedy run per probe, on winnable and unwinnable
        instances, with the whole sequence and with a k_max that cuts it."""
        t, won = 2, 0
        for seed, score in itertools.product((3, 4, 5), ("plurality", "cumulative", "copeland")):
            g = random_instance(20, r=3, seed=seed, avg_deg=2.5)
            seq = _greedy_seq(g, 0, t, score, 20)
            for k_max in (20, 4):
                k_scan = min_seeds_to_win(g, 0, t, score, _prefixes(seq), k_max)
                k_alg2, s_alg2 = alg2_min_seeds(
                    g, 0, t, score, lambda k: _greedy_seq(g, 0, t, score, k), k_max=k_max
                )
                assert k_scan == k_alg2, (seed, score, k_max)
                if k_scan is not None:
                    assert s_alg2 == seq[:k_scan]
                    won += 1
        assert won >= 3

    def test_already_winning_needs_zero(self):
        g = running_example()
        # Flip target to c2 (already ahead at t=1 on cumulative).
        assert min_seeds_to_win(g, 1, 1, "cumulative", _prefixes([0, 1, 2, 3]), 4) == 0
        assert alg2_min_seeds(g, 1, 1, "cumulative", lambda k: list(range(k)))[0] == 0

    def test_sole_candidate_needs_zero(self):
        def selector(k):
            raise AssertionError("a sole candidate needs no seeds")

        g = _sole_candidate()
        assert alg2_min_seeds(g, 0, 1, "plurality", selector) == (0, [])

    def test_sole_candidate_fast_needs_zero(self):
        g = _sole_candidate()
        assert min_seeds_to_win(g, 0, 1, "plurality", _prefixes([0, 1, 2, 3]), 4) == 0

    def test_unwinnable_returns_none(self):
        g = running_example()
        # Empty budget and target behind → cannot win.
        assert min_seeds_to_win(g, 0, 1, "cumulative", _prefixes([]), 0) is None
        # Table I: seeding user 2 alone leaves plurality tied at 2 vs 2.
        assert min_seeds_to_win(g, 0, 1, "plurality", _prefixes([1]), 1) is None

    def test_running_example_plurality_needs_one(self):
        g = running_example()
        seq = _greedy_seq(g, 0, 1, "plurality", 4)
        kstar = min_seeds_to_win(g, 0, 1, "plurality", _prefixes(seq), 4)
        assert kstar == 1 and seq[:1] == [2]

    def test_scan_extends_the_sequence_one_seed_at_a_time(self):
        """The scan asks for k = 0, 1, …, k* and no longer prefix."""
        g = running_example()
        asked = []
        seq = [0, 1, 2, 3]  # Table I plurality: {} 2, {1} 2, {1, 2} 3 against 1
        kstar = min_seeds_to_win(g, 0, 1, "plurality", lambda k: asked.append(k) or seq[:k], 4)
        assert kstar == 2 and asked == [0, 1, 2]


class TestOneRowWinCheck:
    """``target_wins`` diffuses the target's row alone and reads the
    competitors from the kept B^(t)[∅]: same bits, same verdict as the
    r-row diffusion."""

    @staticmethod
    def _tied(seed):
        """A random instance whose opinions tie exactly: b⁰ on a dyadic grid,
        competitor 2 a copy of competitor 1, and the target equal to
        competitor 1 on half the users (d is the same for every candidate)."""
        g = random_instance(30, r=4, seed=seed, avg_deg=2.5)
        rng = np.random.default_rng(seed)
        b0 = rng.integers(0, 5, size=(4, g.n)) / 4.0
        b0[2] = b0[1]
        b0[0, ::2] = b0[1, ::2]
        d = np.repeat(g.d[:1], 4, axis=0)
        return OpinionGraph.from_edges(g.n, g.src, g.dst, g.w, b0, d)

    @pytest.mark.parametrize("score", SCORES)
    def test_same_verdict_as_r_row_diffusion(self, score):
        kw = {"p": 2, "omega": [1.0, 0.5]} if score == "positional_p_approval" else {"p": 2}
        wins = set()
        for seed in range(4):
            g = self._tied(seed)
            for t in (0, 1, 3):
                for q in range(g.r):
                    for seeds in ([], [5], [1, 8, 13], list(range(0, 30, 3))):
                        b = fj_diffuse_np(g.with_seeds(q, seeds), t)
                        row = fj_diffuse_np(g.with_seeds(q, seeds), t, cand=q)
                        assert row.tobytes() == b[q].tobytes()
                        want = score_np(b, q, score, **kw) > max(
                            score_np(b, x, score, **kw) for x in range(g.r) if x != q
                        )
                        assert target_wins(g, q, t, seeds, score, **kw) == want
                        wins.add(want)
        assert wins == {False, True}
