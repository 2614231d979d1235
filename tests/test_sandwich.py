"""Tests for the sandwich approximation machinery (§IV, Thms 5–7)."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.sandwich import (
    favorable_users_np,
    greedy_coverage,
    reach_sets_np,
    sandwich_select,
    ub_value,
    weakly_favorable_users_np,
)
from repro.experiments.datasets import TARGETS, load
from repro.graphs.generators import random_instance, running_example
import repro.graphs.graph as graph_mod
from repro.graphs.graph import reach
from repro.opinion.fj import fj_diffuse_np
from repro.oracle import assert_equivalent
from repro.voting.scores import rank
from tests.test_dm import _CallLog, _row_batches


class TestFavorableSets:
    def test_favorable_matches_rank_definition(self):
        g = random_instance(40, r=3, seed=0)
        t, p = 3, 2
        mask = favorable_users_np(g, 0, t, p)
        b = fj_diffuse_np(g, t)
        assert np.array_equal(mask, rank(b[0], b[1:]) <= p)

    def test_weakly_favorable_definition(self):
        g = random_instance(40, r=4, seed=1)
        mask = weakly_favorable_users_np(g, 1, 3)
        b = fj_diffuse_np(g, 3)
        others = b[[0, 2, 3]]
        assert np.array_equal(mask, b[1] > others.min(axis=0))

    def test_favorable_subset_of_weakly_favorable_r2(self):
        # With r=2 and p=1: strictly-top ⊆ better-than-min.
        g = random_instance(50, r=2, seed=2)
        fav = favorable_users_np(g, 0, 3, 1)
        weak = weakly_favorable_users_np(g, 0, 3)
        assert not (fav & ~weak).any()


def _reach_masks(g, t):
    """(n, n) bool: row v is N_v^(t), transposed from ``reach_sets_np``."""
    nodes, offsets = reach_sets_np(g, t, np.arange(g.n))
    users = np.repeat(np.arange(g.n), np.diff(offsets))
    mask = np.zeros((g.n, g.n), dtype=bool)
    mask[nodes, users] = True
    return mask


def _cover(g, t, base, k):
    """S_U of ``greedy_coverage`` over the users outside ``base``."""
    return greedy_coverage(g.n, *reach_sets_np(g, t, np.flatnonzero(~base)), k)


class TestReachability:
    def test_reach_sets_running_example(self):
        g = running_example()
        reach = _reach_masks(g, 1)
        assert reach[0].tolist() == [True, False, True, False]  # 0 → 2
        assert reach[2].tolist() == [False, False, True, True]  # 2 → 3

    def test_reach_t0_is_self(self):
        g = random_instance(30, seed=3)
        for v, mask in enumerate(_reach_masks(g, 0)):
            assert mask.sum() == 1 and mask[v]

    def test_reach_monotone_in_t(self):
        g = random_instance(30, seed=4)
        r1 = _reach_masks(g, 1)
        r3 = _reach_masks(g, 3)
        for a, b in zip(r1, r3):
            assert not (a & ~b).any()

    def test_reach_t_hop_oracle(self, monkeypatch):
        """t = 3 reachability ≡ a DuckDB recursive CTE, without and with
        blocked nodes (never entered; a blocked root keeps itself), on both
        of ``reach``'s expansions: the frontier BFS and the bits."""
        g = random_instance(40, seed=6, avg_deg=2.0)
        t = 3
        sql = f"""
            WITH RECURSIVE reach(root, node, h) AS (
                SELECT v, v, 0 FROM nodes
                UNION
                SELECT r.root, e.dst, r.h + 1
                FROM reach r JOIN edges e ON e.src = r.node
                WHERE r.h < {t} AND e.dst NOT IN (SELECT v FROM blocked)
            )
            SELECT DISTINCT root, node FROM reach
        """
        nodes = pd.DataFrame({"v": np.arange(g.n)})
        indptr, dst, _ = g.forward_csr()
        for threshold, cut in itertools.product((-1, 10**9), ([], [0, 5, 11, 23])):
            monkeypatch.setattr(graph_mod, "DENSE_N_THRESHOLD", threshold)
            blocked = np.zeros(g.n, dtype=bool)
            blocked[cut] = True
            node, offsets = reach(indptr, dst, np.arange(g.n), t, blocked=blocked)
            root = np.repeat(np.arange(g.n), np.diff(offsets))
            assert_equivalent(
                pd.DataFrame({"root": root, "node": node}),
                sql,
                nodes=nodes,
                edges=g.edges_pdf(),
                blocked=pd.DataFrame({"v": np.asarray(cut, dtype="int64")}),
            )


class TestCoverageGreedy:
    def test_single_pick_is_max_coverage(self):
        g = random_instance(40, seed=7)
        reach = _reach_masks(g, 2)
        base = np.zeros(40, dtype=bool)
        seeds = _cover(g, 2, base, 1)
        cov = ub_value(g, 2, base, seeds, 1.0)
        best = max(range(40), key=lambda v: reach[v].sum())
        assert reach[seeds[0]].sum() == reach[best].sum() == cov

    def test_coverage_counts_union(self):
        g = random_instance(40, seed=8)
        reach = _reach_masks(g, 2)
        base = np.zeros(40, dtype=bool)
        seeds = _cover(g, 2, base, 3)
        mask = base.copy()
        for s in seeds:
            mask |= reach[s]
        assert ub_value(g, 2, base, seeds, 1.0) == mask.sum()

    def test_base_mask_excluded_from_gain(self):
        g = random_instance(40, seed=9)
        base = np.ones(40, dtype=bool)  # everything already covered
        seeds = _cover(g, 2, base, 2)
        assert len(set(seeds)) == 2
        assert ub_value(g, 2, base, seeds, 1.0) == 40


class TestBounds:
    """Thm 5/6/7 part (4): LB(S) ≤ F(S) ≤ UB(S) on random instances."""

    @pytest.mark.parametrize("seed", range(4))
    def test_plurality_sandwich_inequality(self, seed):
        g = random_instance(30, r=3, seed=seed, avg_deg=2.5)
        t, p = 2, 1
        rng = np.random.default_rng(seed)
        S = rng.choice(30, size=3, replace=False).tolist()
        fav = favorable_users_np(g, 0, t, p)
        ev = ExactEvaluator(None, g, 0, t, "plurality")
        f = ev.score_of(S)
        lb = ExactEvaluator(None, g, 0, t, "cumulative", user_mask=fav).score_of(S)
        ub = ub_value(g, t, fav, S, 1.0)
        assert lb <= f + 1e-9 <= ub + 1e-9, (lb, f, ub)

    @pytest.mark.parametrize("seed", range(4))
    def test_copeland_upper_bound(self, seed):
        g = random_instance(30, r=4, seed=seed + 10, avg_deg=2.5)
        t = 2
        rng = np.random.default_rng(seed)
        S = rng.choice(30, size=3, replace=False).tolist()
        weak = weakly_favorable_users_np(g, 0, t)
        coeff = (g.r - 1) / (g.n // 2 + 1)
        ev = ExactEvaluator(None, g, 0, t, "copeland")
        f = ev.score_of(S)
        ub = ub_value(g, t, weak, S, coeff)
        assert f <= ub + 1e-9, (f, ub)

    def test_lb_monotone_in_seeds(self):
        g = random_instance(30, r=2, seed=20)
        fav = favorable_users_np(g, 0, 2, 1)
        lb = ExactEvaluator(None, g, 0, 2, "cumulative", user_mask=fav)
        v1 = lb.score_of([3])
        v2 = lb.score_of([3, 7])
        assert v2 >= v1 - 1e-12

    def test_ub_submodular_sampled(self):
        g = random_instance(30, seed=21)
        base = favorable_users_np(g, 0, 2, 1)
        X, Y, s = [1], [1, 4], 9
        gx = ub_value(g, 2, base, X + [s], 1.0) - ub_value(g, 2, base, X, 1.0)
        gy = ub_value(g, 2, base, Y + [s], 1.0) - ub_value(g, 2, base, Y, 1.0)
        assert gx >= gy - 1e-12


class TestSandwichSelect:
    def test_rejects_cumulative(self):
        g = random_instance(20, seed=22)
        with pytest.raises(ValueError):
            sandwich_select(None, g, 0, 2, 2, "cumulative")

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_runs_and_reports_ratio(self, score):
        g = random_instance(30, r=3, seed=23, avg_deg=2.5)
        res = sandwich_select(None, g, 0, 2, 2, score)
        assert 0 < res.ratio <= 1.0 + 1e-9
        assert len(res.seeds) == 2
        assert res.source in {"S_U", "S_L", "S_F"}

    @pytest.mark.parametrize("score, f", [("plurality", 20.0), ("copeland", 0.0)])
    def test_single_candidate(self, score, f):
        """r = 1: every user votes for the target, who wins no duel.  U_q^(t)
        is empty and the Copeland UB coefficient is 0, so the ratio is 1."""
        g = random_instance(20, r=1, seed=25)
        assert not weakly_favorable_users_np(g, 0, 2).any()
        res = sandwich_select(None, g, 0, 2, 2, score)
        assert len(set(res.seeds)) == 2
        assert res.f_su == res.f_sf == f
        assert res.ratio == 1.0

    def test_rejects_increasing_positional_weights(self):
        """UB scales the coverage by ω₁, an upper bound only when ω₁ is the
        largest weight: with ω = [0.2, 1.0], F(S_U)/UB(S_U) would be 1.55."""
        g = random_instance(60, r=3, seed=4)
        with pytest.raises(ValueError, match="positional weights"):
            sandwich_select(None, g, 0, 2, 2, "positional_p_approval", p=2, omega=[0.2, 1.0])

    def test_positional_ratio_is_at_most_one(self):
        g = random_instance(60, r=3, seed=4)
        res = sandwich_select(None, g, 0, 2, 2, "positional_p_approval", p=2, omega=[1.0, 0.2])
        assert 0 < res.ratio <= 1.0

    @pytest.mark.parametrize("score", ["p_approval", "plurality"])
    def test_ratio_at_most_one_when_score_ignores_omega(self, score):
        """Only positional-p-approval reads ω, so UB's coefficient is 1 for
        the others: ω₁ = 0.3 as the coefficient would give ratios of 1.887
        (p-approval) and 1.156 (plurality)."""
        g = random_instance(60, r=3, seed=4)
        res = sandwich_select(None, g, 0, 2, 2, score, p=2, omega=[0.3, 0.3, 0.3])
        assert 0 < res.ratio <= 1.0

    def test_result_at_least_feasible_greedy(self):
        g = random_instance(30, r=2, seed=24, avg_deg=2.5)
        res = sandwich_select(None, g, 0, 2, 2, "plurality")
        # Alg. 3 returns the best of the three → ≥ F(S_F).
        best = max(res.f_su, res.f_sf, res.f_sl)
        ev = ExactEvaluator(None, g, 0, 2, "plurality")
        assert np.isclose(ev.score_of(res.seeds), best)


# EXPERIMENTS.md's Fig. 2 table: k, F(S_U)/UB(S_U) to 3 decimals, F(S_F),
# F(S_U), F(S_L) and the winner.
FIG2_ROWS = [
    (5, "0.693", 185, 165, 146, "S_F"),
    (10, "0.754", 208, 199, 179, "S_F"),
    (20, "0.779", 235, 225, 184, "S_F"),
    (30, "0.798", 256, 245, 185, "S_F"),
    (40, "0.823", 273, 261, 188, "S_F"),
]


def test_fig2_table_is_pinned():
    """The Fig. 2 table at ``jobs/run_sandwich.py``'s defaults
    (twitter-sd-lite, n = 400, t = 5, plurality)."""
    g = load("twitter-sd-lite", nodes=400)
    target = TARGETS["twitter-sd-lite"]
    rows = []
    for k, *_ in FIG2_ROWS:
        res = sandwich_select(None, g, target, 5, k, "plurality")
        rows.append((k, f"{res.ratio:.3f}", res.f_sf, res.f_su, res.f_sl, res.source))
    assert rows == FIG2_ROWS


def _dm_then_sandwich(g, with_selector):
    """perfbench's yelp order: plain plurality DM, then the sandwich, whose
    S_F is the DM seeds or its own greedy."""
    dm, _ = greedy_dm(ExactEvaluator(None, g, 0, 5, "plurality"), 3, celf=False)
    selector = (lambda k: dm[:k]) if with_selector else None
    return dm, sandwich_select(None, g, 0, 5, 3, "plurality", selector=selector)


class TestSharedBatch:
    """The LB and S_F greedy read the all-candidate batch DM kept on the
    graph, and return what they return on a cold graph."""

    # A sparse graph (n²/m = 100) and a denser one (40), both layered.
    @pytest.mark.parametrize("avg_deg", [1.0, 4.0])
    @pytest.mark.parametrize("with_selector", [False, True])
    def test_warm_equals_cold(self, avg_deg, with_selector):
        def graph():
            return random_instance(150, r=3, seed=34, avg_deg=avg_deg)

        dm, warm = _dm_then_sandwich(graph(), with_selector)
        selector = (lambda k: dm[:k]) if with_selector else None
        cold = sandwich_select(None, graph(), 0, 5, 3, "plurality", selector=selector)
        assert warm == cold

    @pytest.mark.parametrize("with_selector", [False, True])
    def test_dm_then_sandwich_runs_one_all_candidate_batch(self, monkeypatch, with_selector):
        sizes = _row_batches(monkeypatch)
        g = random_instance(150, r=3, seed=34, avg_deg=1.0)
        _dm_then_sandwich(g, with_selector)
        assert sizes[0] == g.n and sizes.count(g.n) == 1

    def test_bound_less_dm_then_sandwich_runs_no_empty_batch(self, monkeypatch):
        """perfbench's traced yelp order: plain DM through a stand-in with no
        ``bound``, so every round scores every candidate, then the sandwich
        with S_F = the DM seeds.  DM's rounds at S ≠ ∅ keep nothing, so the
        LB reads DM's batch at S = ∅ and the sandwich runs none."""
        from repro.experiments.datasets import load
        from repro.experiments.tables import trailing_candidate

        sizes = _row_batches(monkeypatch)
        g = load("yelp-lite")
        q = trailing_candidate(g, 20, "plurality")
        log = _CallLog(ExactEvaluator(None, g, q, 20, "plurality"))
        dm, _ = greedy_dm(log, 4, celf=False)
        assert [len(c) for _, c in log.calls] == [g.n - i for i in range(4)]
        ran = len(sizes)
        sandwich_select(None, g, q, 20, 4, "plurality", selector=lambda k: dm[:k])
        assert sizes[:ran].count(g.n) == 1 and g.n not in sizes[ran:]
