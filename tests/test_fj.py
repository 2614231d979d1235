"""Tests for FJ/DeGroot diffusion — NumPy kernel and DuckDB oracle."""
from dataclasses import replace

import numpy as np
import pytest

from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np, unseeded_horizon_np
from repro.oracle import assert_equivalent, opinions_pdf


def _fj_sql(t: int) -> str:
    """t FJ steps as SQL over ``edges`` and ``s0`` (the initial state).

    Step i+1 blends the in-edge aggregate of step i with the anchor b0,
    as in Eq. 2; a node without in-edges keeps only its anchor term.
    """
    steps = [
        f"""s{i + 1} AS (
            SELECT s.node, s.cand,
                   (1 - s.d) * COALESCE(a.agg, 0) + s.d * s.b0 AS b, s.b0, s.d
            FROM s{i} s LEFT JOIN (
                SELECT e.dst AS node, p.cand, SUM(e.w * p.b) AS agg
                FROM edges e JOIN s{i} p ON e.src = p.node
                GROUP BY e.dst, p.cand
            ) a USING (node, cand)
        )"""
        for i in range(t)
    ]
    head = f"WITH {', '.join(steps)} " if steps else ""
    return head + f"SELECT node, cand, b FROM s{t}"


class TestUnseededHorizon:
    """B^(t)[∅] is kept on the graph, read-only, and made again when t
    changes (the graph's b0 and d are read-only)."""

    def test_kept_equals_fresh_diffusion(self):
        g = random_instance(50, r=3, seed=40)
        b = unseeded_horizon_np(g, 4)
        np.testing.assert_array_equal(b, fj_diffuse_np(g, 4))
        assert not b.flags.writeable
        assert unseeded_horizon_np(g, 4) is b

    @pytest.mark.parametrize("change", ["t"])
    def test_made_again_on_change(self, change):
        g = random_instance(50, r=3, seed=41)
        b, t = unseeded_horizon_np(g, 4), 3
        got = unseeded_horizon_np(g, t)
        assert got is not b
        np.testing.assert_array_equal(got, fj_diffuse_np(g, t))

    def test_callers_share_one_diffusion(self, monkeypatch):
        """The trailing-target search, the exact evaluator's and the sketch
        selectors' opponent opinions and the sandwich's (weakly) favorable
        users run one r-row diffusion between them, made by the first."""
        import repro.opinion.fj as fj_mod
        from repro.core.dm import ExactEvaluator, others_at_horizon
        from repro.core.sandwich import favorable_users_np, weakly_favorable_users_np
        from repro.experiments.tables import trailing_candidate
        from repro.voting.scores import score_np

        calls = []
        diffuse = fj_mod.fj_diffuse_np
        monkeypatch.setattr(
            fj_mod, "fj_diffuse_np", lambda *a, **kw: calls.append(kw) or diffuse(*a, **kw)
        )
        g = random_instance(50, r=3, seed=42)
        b = diffuse(g, 4)
        want = int(np.argmin([score_np(b, q, "plurality") for q in range(g.r)]))
        assert trailing_candidate(g, 4, "plurality") == want
        assert calls == [{}]
        ExactEvaluator(None, g, 0, 4, "plurality")
        others_at_horizon(g, 1, 4)
        favorable_users_np(g, 0, 4, 1)
        weakly_favorable_users_np(g, 2, 4)
        assert calls == [{}]
        d = g.d.copy()
        d[0, 3] = 0.5
        favorable_users_np(replace(g, d=d), 0, 4, 1)
        favorable_users_np(g, 0, 4, 1)
        assert calls == [{}, {}]


class TestNumpyReference:
    def test_t0_is_initial(self):
        g = running_example()
        assert np.array_equal(fj_diffuse_np(g, 0), g.b0)

    def test_example1_user3_recurrence(self):
        # b3^(1) = ½[b3^(0) + ½(b1^(0)+b2^(0))] per Example 1.
        g = running_example()
        b1 = fj_diffuse_np(g, 1)
        for q in range(2):
            expected = 0.5 * (g.b0[q, 2] + 0.5 * (g.b0[q, 0] + g.b0[q, 1]))
            assert np.isclose(b1[q, 2], expected)

    def test_example1_user4_recurrence(self):
        g = running_example()
        b1 = fj_diffuse_np(g, 1)
        b2 = fj_diffuse_np(g, 2)
        for q in range(2):
            # FJ: b4^(2) = ½·b3^(1) + ½·b4^(0) (stubbornness anchors to b0).
            assert np.isclose(b2[q, 3], 0.5 * b1[q, 2] + 0.5 * g.b0[q, 3])

    def test_no_in_neighbor_users_retain_initial(self):
        g = running_example()
        b = fj_diffuse_np(g, 7)
        assert np.allclose(b[:, [0, 1]], g.b0[:, [0, 1]])

    @pytest.mark.parametrize("t", [1, 3, 10])
    def test_opinions_stay_in_unit_interval(self, t):
        g = random_instance(60, r=3, seed=2)
        b = fj_diffuse_np(g, t)
        assert (b >= -1e-12).all() and (b <= 1 + 1e-12).all()

    def test_fully_stubborn_never_move(self):
        g = random_instance(40, seed=1)
        g = replace(g, d=np.ones_like(g.d))
        assert np.allclose(fj_diffuse_np(g, 5), g.b0)

    def test_degroot_special_case_averages(self):
        # d == 0: a uniform opinion vector is a fixed point.
        g = random_instance(40, seed=3)
        g = replace(g, d=np.zeros_like(g.d), b0=np.full_like(g.b0, 0.7))
        assert np.allclose(fj_diffuse_np(g, 6), 0.7)

    def test_single_candidate_slice_matches(self):
        g = random_instance(50, r=3, seed=4)
        full = fj_diffuse_np(g, 4)
        for q in range(3):
            assert np.allclose(fj_diffuse_np(g, 4, cand=q), full[q])

    def test_seed_pins_opinion_to_one(self):
        g = random_instance(50, seed=5)
        b = opinions_at_horizon_np(g, 6, 0, [7, 13])
        assert np.allclose(b[0, [7, 13]], 1.0)

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_monotone_in_seeds(self, t):
        g = random_instance(60, seed=6)
        base = opinions_at_horizon_np(g, t, 0, [])[0]
        seeded = opinions_at_horizon_np(g, t, 0, [0, 5, 9])[0]
        assert (seeded >= base - 1e-12).all()


def test_fj_t_step_oracle():
    """t = 3 FJ steps: NumPy kernel ≡ DuckDB SQL, without and with seeds."""
    g = random_instance(50, r=2, seed=8)
    for inst in (g, g.with_seeds(0, [3, 17, 41])):
        assert_equivalent(
            opinions_pdf(fj_diffuse_np(inst, 3)),
            _fj_sql(3),
            edges=inst.edges_pdf(),
            s0=inst.state_pdf(),
        )
