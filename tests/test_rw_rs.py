"""Integration tests for the RW (Alg. 4) and RS (Alg. 5) selectors.

Graphs are kept small (n ≤ 60, t ≤ 4) — every selector generates its
walks with a Spark job.  Quality checks compare against the exact DM
greedy.
"""
import numpy as np
import pytest

from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.rs import RSSelector
from repro.core.rw import RWSelector
from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import opinions_at_horizon_np
from repro.voting.scores import score_np
from tests.reference import walk_frame


def _exact(g, target, t, seeds, score):
    b = opinions_at_horizon_np(g, t, target, seeds)
    return score_np(b, target, score)


@pytest.fixture(scope="module")
def small_graph():
    return random_instance(50, r=3, seed=42, avg_deg=3.0)


class TestRW:
    @pytest.mark.usefixtures("spark")
    def test_gain_pipeline_matches_bruteforce(self, small_graph):
        """Estimated marginal gains ≡ recomputing the estimate per candidate."""
        g = small_graph
        sel = RWSelector(None, g, 0, 3, "cumulative", lam=10, seed=1)
        gains, cand = sel.sketches.gains()
        walks = walk_frame(sel.walks, g.b0[0])
        lam = 10
        for v in np.flatnonzero(cand):
            exp = sum(
                (1.0 - op) / lam
                for path, op in zip(walks["path"], walks["op"])
                if v in list(path)
            )
            assert np.isclose(gains[v], exp), f"node {v}"

    def test_estimated_score_tracks_truncation(self, small_graph):
        g = small_graph
        sel = RWSelector(None, g, 0, 3, "cumulative", lam=20, seed=2)
        before = sel.estimated_score()
        seeds = sel.select(2)
        after = sel.estimated_score()
        assert after >= before  # estimates only rise with seeds
        assert len(set(seeds)) == 2

    def test_selects_distinct_seeds(self, small_graph):
        sel = RWSelector(None, small_graph, 0, 3, "plurality", lam=15, seed=3)
        seeds = sel.select(3)
        assert len(set(seeds)) == 3

    def test_running_example_first_pick(self):
        """With dense walks, RW recovers DM's first pick on the example."""
        g = running_example()
        sel = RWSelector(None, g, 0, 1, "cumulative", lam=400, seed=4)
        assert sel.select(1) == [0]  # Table I: node 0 maximizes cumulative

    def test_running_example_plurality_pick(self):
        g = running_example()
        sel = RWSelector(None, g, 0, 1, "plurality", lam=400, seed=5)
        assert sel.select(1) == [2]  # Table I: node 2 maximizes plurality

    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_quality_close_to_dm(self, small_graph, score):
        g = small_graph
        t, k = 3, 3
        sel = RWSelector(None, g, 0, t, score, lam=60, seed=6)
        rw_seeds = sel.select(k)
        ev = ExactEvaluator(None, g, 0, t, score)
        dm_seeds, dm_trace = greedy_dm(ev, k, celf=(score == "cumulative"))
        f_rw = _exact(g, 0, t, rw_seeds, score)
        f_dm = dm_trace[-1]
        assert f_rw >= 0.8 * f_dm, (rw_seeds, dm_seeds, f_rw, f_dm)

    def test_estimated_score_close_to_exact(self, small_graph):
        g = small_graph
        sel = RWSelector(None, g, 0, 3, "cumulative", lam=120, seed=7)
        est = sel.estimated_score()
        exact = _exact(g, 0, 3, [], "cumulative")
        assert abs(est - exact) / exact < 0.1


class TestSketchBudget:
    @pytest.mark.parametrize("lam", [0, -1])
    def test_rw_budget_below_one_raises(self, small_graph, lam):
        with pytest.raises(ValueError, match="budget"):
            RWSelector(None, small_graph, 0, 3, "cumulative", lam=lam)

    @pytest.mark.parametrize("theta", [0, -5])
    def test_rs_budget_below_one_raises(self, small_graph, theta):
        with pytest.raises(ValueError, match="budget"):
            RSSelector(None, small_graph, 0, 3, "cumulative", theta=theta)


class TestRS:
    def test_cumulative_estimate_scales(self, small_graph):
        g = small_graph
        rs = RSSelector(None, g, 0, 3, "cumulative", theta=3000, seed=8)
        est = rs.estimated_score()
        exact = _exact(g, 0, 3, [], "cumulative")
        assert abs(est - exact) / exact < 0.15

    @pytest.mark.usefixtures("spark")
    def test_gain_pipeline_matches_bruteforce(self, small_graph):
        g = small_graph
        rs = RSSelector(None, g, 0, 3, "cumulative", theta=300, seed=9)
        gains, cand = rs.sketches.gains()
        walks = walk_frame(rs.walks, g.b0[0])
        scale = g.n / 300
        for v in np.flatnonzero(cand):
            exp = scale * sum(
                (1.0 - op)
                for path, op in zip(walks["path"], walks["op"])
                if v in list(path)
            )
            assert np.isclose(gains[v], exp), f"node {v}"

    def test_selects_distinct_seeds(self, small_graph):
        rs = RSSelector(None, small_graph, 0, 3, "plurality", theta=500, seed=10)
        seeds = rs.select(3)
        assert len(set(seeds)) == 3

    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_quality_close_to_dm(self, small_graph, score):
        g = small_graph
        t, k = 3, 3
        rs = RSSelector(None, g, 0, t, score, theta=2500, seed=11)
        rs_seeds = rs.select(k)
        ev = ExactEvaluator(None, g, 0, t, score)
        _, dm_trace = greedy_dm(ev, k, celf=(score == "cumulative"))
        f_rs = _exact(g, 0, t, rs_seeds, score)
        assert f_rs >= 0.75 * dm_trace[-1], (rs_seeds, f_rs, dm_trace[-1])

    def test_running_example_first_pick(self):
        g = running_example()
        rs = RSSelector(None, g, 0, 1, "cumulative", theta=2000, seed=12)
        assert rs.select(1) == [0]
