"""Tests for walk/sketch budget formulas (Thms 10–13, §VI-E heuristics)."""
import math

import numpy as np
import pytest

from repro.baselines.centrality import degree_seeds
from repro.core.walk_budget import (
    estimate_gamma,
    heuristic_theta,
    lambda_copeland,
    lambda_cumulative,
    lambda_rank,
    opt_lower_bound,
    theta_cumulative,
)
from repro.graphs.generators import random_instance
from repro.opinion.fj import opinions_at_horizon_np
from repro.voting.scores import score_np


class TestLambdaFormulas:
    def test_cumulative_closed_form(self):
        # δ=0.1, ρ=0.9 → ln(20)/(2·0.01) ≈ 149.8 → 150.
        assert lambda_cumulative(0.1, 0.9) == math.ceil(math.log(20) / 0.02)

    def test_paper_defaults(self):
        # Paper §VIII-A defaults δ=0.1, ρ=0.9.
        assert lambda_cumulative(0.1, 0.9) == 150

    @pytest.mark.parametrize("rho", [0.75, 0.8, 0.9, 0.95])
    def test_monotone_in_rho(self, rho):
        assert lambda_cumulative(0.1, rho) <= lambda_cumulative(0.1, rho + 0.04)

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    def test_monotone_in_delta(self, delta):
        assert lambda_cumulative(delta, 0.9) >= lambda_cumulative(delta * 2, 0.9)

    def test_rank_uses_gamma(self):
        assert lambda_rank(0.1, 0.9) == lambda_cumulative(0.1, 0.9)

    def test_copeland_smaller_than_rank(self):
        # ln(1/(1−ρ)) < ln(2/(1−ρ)): one-sided bound needs fewer walks.
        assert lambda_copeland(0.1, 0.9) < lambda_rank(0.1, 0.9)

    @pytest.mark.parametrize(
        "fn", [lambda_cumulative, lambda_rank, lambda_copeland]
    )
    def test_invalid_inputs_raise(self, fn):
        with pytest.raises(ValueError):
            fn(0.0, 0.9)
        with pytest.raises(ValueError):
            fn(0.1, 1.0)

    def test_hoeffding_guarantee_holds_empirically(self):
        """λ from Thm 10 delivers the promised (δ, ρ) accuracy."""
        from repro.opinion.walks import reverse_walks

        g = random_instance(20, seed=0, avg_deg=3.0)
        delta, rho, t = 0.15, 0.8, 3
        lam = lambda_cumulative(delta, rho)
        exact = opinions_at_horizon_np(g, t, 0, [])[0]
        ids = np.arange(g.n * lam)

        def estimates(seed):
            _, _, ends = reverse_walks(g.reverse_alias(), g.d[0], seed, ids, t, lam=lam)
            return np.bincount(ids // lam, weights=g.b0[0, ends]) / lam

        hits = 0
        trials = 40
        rng_seeds = range(trials)
        for s in rng_seeds:
            est = estimates(s)
            hits += int((np.abs(est - exact) < delta).all())
        # Per-node guarantee is ρ; all-nodes success is weaker, but with
        # λ≈36 the empirical per-node rate must be well above ρ − slack.
        per_node = 0
        for s in rng_seeds:
            est = estimates(100 + s)
            per_node += (np.abs(est - exact) < delta).mean()
        assert per_node / trials >= rho - 0.05


class TestGammaHeuristic:
    def test_respects_floor(self):
        g = random_instance(30, r=2, seed=1)
        gam = estimate_gamma(g, 0, 3, 5, gamma_floor=0.5)
        assert gam >= 0.5

    def test_nonincreasing_in_k(self):
        g = random_instance(40, r=3, seed=2)
        g1 = estimate_gamma(g, 0, 3, 1)
        g5 = estimate_gamma(g, 0, 3, 5)
        assert g5 <= g1 + 1e-12

    def test_positive(self):
        g = random_instance(40, r=3, seed=3)
        assert estimate_gamma(g, 0, 3, 3) > 0


class TestOptLowerBound:
    @pytest.mark.parametrize("score", ["cumulative", "plurality"])
    def test_is_valid_lower_bound(self, score):
        """LB ≤ OPT, verified by exhaustive search on a tiny instance."""
        import itertools

        g = random_instance(10, seed=4, avg_deg=2.0)
        t, k = 2, 2
        lb = opt_lower_bound(g, 0, t, k, score)
        opt = max(
            score_np(opinions_at_horizon_np(g, t, 0, list(S)), 0, score)
            for S in itertools.combinations(range(10), k)
        )
        assert lb <= opt + 1e-9

    @pytest.mark.parametrize("score", ["cumulative", "plurality"])
    def test_probe_is_degree_seeds(self, score):
        """The probe is DC's top-k; a degree tie straddles the cut here, so
        the tie rule (smallest id) decides it."""
        g = random_instance(20, seed=0, avg_deg=3.0)
        t, k = 2, 5
        probe = degree_seeds(None, g, k)
        deg = np.bincount(g.src[g.src != g.dst], minlength=g.n)
        tied = np.flatnonzero(deg == deg[probe[-1]])
        assert not np.isin(tied, probe).all()
        exact = score_np(opinions_at_horizon_np(g, t, 0, probe), 0, score)
        assert opt_lower_bound(g, 0, t, k, score) == pytest.approx(exact, rel=1e-12)

    def test_cumulative_at_least_k(self):
        g = random_instance(20, seed=5)
        assert opt_lower_bound(g, 0, 2, 5, "cumulative") >= 5


class TestTheta:
    def test_decreases_with_opt(self):
        assert theta_cumulative(1000, 10, 500.0) < theta_cumulative(1000, 10, 100.0)

    def test_decreases_with_eps(self):
        assert theta_cumulative(1000, 10, 100.0, eps=0.2) < theta_cumulative(
            1000, 10, 100.0, eps=0.1
        )

    def test_invalid_opt_raises(self):
        with pytest.raises(ValueError):
            theta_cumulative(100, 5, 0.0)

    def test_scales_linearly_with_n_at_fixed_ratio(self):
        # With OPT ∝ n the bound grows only logarithmically.
        t1 = theta_cumulative(1000, 10, 500.0)
        t2 = theta_cumulative(2000, 10, 1000.0)
        assert t2 < 2 * t1


class TestHeuristicTheta:
    def test_converged_estimator_stops_early(self):
        theta = heuristic_theta(lambda th: 42.0, theta0=64, theta_max=1 << 14)
        assert theta == 64

    def test_slow_estimator_doubles(self):
        # Estimate keeps drifting >2% until θ = 1024.
        def est(th):
            return 100.0 * min(th, 1024) / 1024

        theta = heuristic_theta(est, theta0=64, theta_max=1 << 14, tol=0.02)
        assert theta >= 512

    def test_respects_theta_max(self):
        calls = []

        def est(th):
            calls.append(th)
            return float(th)  # never converges

        theta = heuristic_theta(est, theta0=64, theta_max=512)
        assert theta == 512 and max(calls) <= 1024
