"""Tests for the exact (DM) evaluator and greedy/CELF (Alg. 1, §III-C)."""
import itertools

import numpy as np
import pytest

from repro.core.dm import (
    ExactEvaluator,
    batch_scores_np,
    greedy_dm,
    others_at_horizon,
)
from repro.graphs.generators import random_instance, running_example
from repro.graphs.graph import OpinionGraph, reach
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np
from repro.voting.scores import score_np


def _exact_score(g, target, t, seeds, score, **kw):
    b = opinions_at_horizon_np(g, t, target, seeds)
    return score_np(b, target, score, **kw)


class TestBatchScores:
    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_matches_one_at_a_time(self, score):
        g = random_instance(40, r=3, seed=0)
        t, target, S = 3, 0, [5]
        others = None if score == "cumulative" else others_at_horizon(g, target, t)
        cands = np.array([0, 7, 11, 20])
        vals = batch_scores_np(g, target, S, cands, t, score, others=others)
        for v, c in zip(vals, cands):
            assert np.isclose(v, _exact_score(g, target, t, S + [int(c)], score))

    def test_seed_column_pinned(self):
        g = random_instance(30, seed=1)
        cands = np.array([3, 9])
        # Internal invariant: the per-row seed has opinion exactly 1 — the
        # returned cumulative score must therefore be ≥ base + (1 − b_c).
        base = _exact_score(g, 0, 4, [], "cumulative")
        vals = batch_scores_np(g, 0, [], cands, 4, "cumulative")
        assert (vals >= base - 1e-9).all()

    def test_user_mask_restricts_sum(self):
        g = random_instance(30, seed=2)
        mask = np.zeros(30, dtype=bool)
        mask[:10] = True
        vals = batch_scores_np(g, 0, [], np.array([0]), 3, "cumulative", user_mask=mask)
        b = opinions_at_horizon_np(g, 3, 0, [0])[0]
        assert np.isclose(vals[0], b[:10].sum())

    def test_existing_seeds_applied(self):
        g = random_instance(30, seed=3)
        v1 = batch_scores_np(g, 0, [2, 4], np.array([7]), 3, "cumulative")[0]
        assert np.isclose(v1, _exact_score(g, 0, 3, [2, 4, 7], "cumulative"))


class TestOthersAtHorizon:
    def test_shape_and_values(self):
        g = random_instance(25, r=4, seed=4)
        o = others_at_horizon(g, 1, 3)
        full = fj_diffuse_np(g, 3)
        assert o.shape == (3, 25)
        assert np.allclose(o, full[[0, 2, 3]])


class TestEvaluator:
    def test_local_path_matches_reference(self):
        g = random_instance(35, seed=5)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        vals = ev([1], [0, 2, 3])
        for v, c in zip(vals, [0, 2, 3]):
            assert np.isclose(v, _exact_score(g, 0, 3, [1, int(c)], "cumulative"))

    def test_score_of_matches_reference(self):
        g = random_instance(30, r=3, seed=7)
        for score in ["cumulative", "plurality", "copeland"]:
            ev = ExactEvaluator(None, g, 0, 4, score)
            assert np.isclose(ev.score_of([3, 5]), _exact_score(g, 0, 4, [3, 5], score))

    def test_score_of_with_mask(self):
        g = random_instance(30, seed=8)
        mask = np.zeros(30, dtype=bool)
        mask[5:15] = True
        ev = ExactEvaluator(None, g, 0, 3, "cumulative", user_mask=mask)
        b = opinions_at_horizon_np(g, 3, 0, [2])[0]
        assert np.isclose(ev.score_of([2]), b[5:15].sum())


class TestGreedy:
    def test_celf_equals_plain_greedy_cumulative(self):
        g = random_instance(50, seed=9)
        ev = ExactEvaluator(None, g, 0, 4, "cumulative")
        s1, t1 = greedy_dm(ev, 4, celf=True)
        s2, t2 = greedy_dm(ev, 4, celf=False)
        assert s1 == s2 and np.allclose(t1, t2)

    def test_trace_is_exact_scores(self):
        g = random_instance(40, seed=10)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, trace = greedy_dm(ev, 3, celf=True)
        for i in range(3):
            assert np.isclose(trace[i], _exact_score(g, 0, 3, seeds[: i + 1], "cumulative"))

    def test_greedy_matches_bruteforce_first_pick(self):
        g = random_instance(25, seed=11)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, _ = greedy_dm(ev, 1)
        best = max(range(25), key=lambda v: _exact_score(g, 0, 3, [v], "cumulative"))
        assert seeds[0] == best

    def test_greedy_near_optimal_small_instance(self):
        """(1−1/e) guarantee on an exhaustively solvable instance."""
        g = random_instance(12, seed=12, avg_deg=2.0)
        t, k = 3, 2
        ev = ExactEvaluator(None, g, 0, t, "cumulative")
        seeds, trace = greedy_dm(ev, k)
        opt = max(
            _exact_score(g, 0, t, list(S), "cumulative")
            for S in itertools.combinations(range(12), k)
        )
        assert trace[-1] >= (1 - 1 / np.e) * opt - 1e-9

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_greedy_runs_for_rank_scores(self, score):
        g = random_instance(30, r=3, seed=13)
        ev = ExactEvaluator(None, g, 0, 3, score)
        seeds, trace = greedy_dm(ev, 2, celf=False)
        assert len(seeds) == 2 and len(set(seeds)) == 2
        assert trace == sorted(trace)  # scores non-decreasing in seeds

    @pytest.mark.parametrize("celf", [True, False])
    def test_k_above_pool_raises(self, celf):
        g = random_instance(6, seed=15)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, _ = greedy_dm(ev, 6, celf=celf)
        assert sorted(seeds) == list(range(6))
        with pytest.raises(ValueError, match="k=7"):
            greedy_dm(ev, 7, celf=celf)

    def test_k_counts_init_seeds_toward_pool(self):
        g = random_instance(6, seed=15)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, _ = greedy_dm(ev, 6, celf=False, init=[4])
        assert seeds[0] == 4 and sorted(seeds) == list(range(6))
        with pytest.raises(ValueError, match="k=7"):
            greedy_dm(ev, 7, celf=False, init=[4])

    def test_running_example_greedy_picks_node0_for_cumulative(self):
        # Table I: {1} (node 0) maximizes the cumulative score at t=1.
        g = running_example()
        ev = ExactEvaluator(None, g, 0, 1, "cumulative")
        seeds, _ = greedy_dm(ev, 1)
        assert seeds == [0]

    def test_running_example_greedy_picks_node2_for_plurality(self):
        # Table I: {3} (node 2) maximizes the plurality score at t=1.
        g = running_example()
        ev = ExactEvaluator(None, g, 0, 1, "plurality")
        seeds, _ = greedy_dm(ev, 1, celf=False)
        assert seeds == [2]


_OMEGA = np.array([1.0, 0.6, 0.25, 0.1])

# Kernel cases: (score, batch_scores_np keywords) — all five scores, p = 2
# and ω for the approval variants, and the LB's user mask.
_KERNEL_CASES = {
    "cumulative": ("cumulative", {}),
    "cumulative_user_mask": ("cumulative", {"user_mask": np.arange(40) % 3 == 0}),
    "plurality": ("plurality", {}),
    "p_approval": ("p_approval", {"p": 2}),
    "positional_p_approval": ("positional_p_approval", {"p": 2, "omega": _OMEGA}),
    "copeland": ("copeland", {}),
}


class TestKernelPaths:
    """The dense-BLAS and reach-local kernels agree."""

    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    def test_sparse_path_matches_dense(self, monkeypatch, case):
        import repro.core.dm as dm_mod

        score, kw = _KERNEL_CASES[case]
        g0 = random_instance(40, r=4, seed=30)
        # Explicit self-loops on every 4th node carry δ from step to step.
        loops = np.arange(0, g0.n, 4)
        g = OpinionGraph.from_edges(
            g0.n, np.r_[g0.src, loops], np.r_[g0.dst, loops],
            np.r_[g0.w, np.full(len(loops), 0.5)], g0.b0, g0.d,
        )
        out_deg = np.bincount(g.src[g.src != g.dst], minlength=g.n)
        hubs = np.argsort(-out_deg, kind="stable")[:3].tolist()
        # Every candidate, so some are already in S; plus an empty batch.
        batches = [np.arange(g.n), np.array([], dtype=np.int64)]
        for t, seeds in itertools.product([0, 1, 3], [[], [2], hubs]):
            others = None if score == "cumulative" else others_at_horizon(g, 0, t)
            for cands in batches:
                monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", g.n)
                dense = batch_scores_np(g, 0, seeds, cands, t, score, others=others, **kw)
                monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", 0)
                local = batch_scores_np(g, 0, seeds, cands, t, score, others=others, **kw)
                assert local.shape == (len(cands),)
                np.testing.assert_allclose(local, dense, rtol=1e-12, atol=1e-12)
        # The hub seeds do cut paths that the reach-local kernel must skip.
        blocked = np.zeros(g.n, dtype=bool)
        blocked[hubs] = True
        indptr, dst, _ = g.forward_csr()
        cut = reach(indptr, dst, np.arange(g.n), 3, blocked=blocked)[0]
        assert len(cut) < len(reach(indptr, dst, np.arange(g.n), 3)[0])

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_sole_candidate_kernels_agree(self, monkeypatch, score):
        """r = 1: no opponent, so every user ranks the target first and it
        wins no duel; both kernels say so."""
        import repro.core.dm as dm_mod

        g0 = random_instance(30, r=2, seed=33)
        g = OpinionGraph.from_edges(g0.n, g0.src, g0.dst, g0.w, g0.b0[:1], g0.d[:1])
        ev = ExactEvaluator(None, g, 0, 3, score)
        assert ev.others.shape == (0, g.n)
        want = np.full(g.n, g.n if score == "plurality" else 0.0)
        for threshold in (g.n, 0):
            monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", threshold)
            np.testing.assert_array_equal(ev([4], np.arange(g.n)), want)

    @pytest.mark.parametrize("score", ["cumulative", "plurality"])
    def test_evaluator_runs_reach_local_kernel_above_threshold(self, monkeypatch, score):
        """Above DENSE_N_THRESHOLD the evaluator dispatches to the reach-local
        kernel; the reference is the dense kernel, forced by raising the
        threshold."""
        import repro.core.dm as dm_mod

        g = random_instance(1600, r=3, seed=32, avg_deg=3.0)
        assert g.n > dm_mod.DENSE_N_THRESHOLD
        t, seeds = 4, [3, 10]
        ran = []
        reach_local = dm_mod._reach_local_scores
        monkeypatch.setattr(
            dm_mod, "_reach_local_scores", lambda *a: ran.append(a) or reach_local(*a)
        )
        ev = ExactEvaluator(None, g, 0, t, score)
        cands = np.arange(0, g.n, 25)
        got = ev(seeds, cands)
        assert len(ran) == 1
        monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", g.n)
        dense = batch_scores_np(g, 0, seeds, cands, t, score, others=ev.others)
        assert len(ran) == 1
        np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-12)

    def test_positional_vectorization_matches_score_np(self):
        from repro.voting.scores import score_np as snp
        from repro.opinion.fj import opinions_at_horizon_np

        g = random_instance(30, r=4, seed=31)
        om = np.array([1.0, 0.7, 0.3, 0.0])
        others = others_at_horizon(g, 0, 2)
        cands = np.array([0, 4, 8])
        vals = batch_scores_np(
            g, 0, [], cands, 2, "positional_p_approval", others=others, p=3, omega=om
        )
        for v, c in zip(vals, cands):
            b = opinions_at_horizon_np(g, 2, 0, [int(c)])
            assert np.isclose(v, snp(b, 0, "positional_p_approval", p=3, omega=om))
