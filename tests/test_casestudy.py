"""Tests for the ACM-election case-study substrate (Tables IV & V analogue)."""
import numpy as np
import pytest

from repro.experiments.casestudy import (
    DOMAINS,
    _INITIAL_SHARE,
    build_case_study,
    run_case_study,
    votes_for_target,
)


class TestBuild:
    def test_seven_domains(self):
        assert len(DOMAINS) == 7
        assert set(DOMAINS) == {"DM", "HCI", "ML", "CN", "AL", "SW", "HW"}

    def test_graph_and_users_align(self):
        g, users = build_case_study(200, seed=1)
        assert g.n == 200 and len(users) == 200 and g.r == 2

    def test_membership_at_most_three(self):
        _, users = build_case_study(300, seed=2)
        assert users["domains"].map(len).max() <= 3
        assert users["domains"].map(len).min() >= 1

    def test_every_membership_is_known_domain(self):
        _, users = build_case_study(200, seed=3)
        for ds in users["domains"]:
            assert set(ds) <= set(DOMAINS)

    def test_initial_preference_shares_roughly_calibrated(self):
        g, users = build_case_study(2000, seed=4)
        prefers = g.b0[0] > g.b0[1]
        # SW users should start far more favorable than ML users (Table IV).
        sw = users["domains"].map(lambda d: d[0] == "SW").to_numpy()
        ml = users["domains"].map(lambda d: d[0] == "ML").to_numpy()
        assert prefers[sw].mean() > prefers[ml].mean() + 0.2

    def test_deterministic(self):
        a, ua = build_case_study(150, seed=5)
        b, ub = build_case_study(150, seed=5)
        assert np.array_equal(a.b0, b.b0)
        assert (ua["domains"].map(tuple) == ub["domains"].map(tuple)).all()

    def test_overall_initial_share_near_paper(self):
        # Paper: 21.8% favor the target before seeding (t=20 tally is
        # close to the t=0 calibration by construction).
        g, _ = build_case_study(3000, seed=6)
        share = (g.b0[0] > g.b0[1]).mean()
        assert 0.1 < share < 0.4


class TestVotes:
    def test_votes_mask_shape(self):
        g, _ = build_case_study(100, seed=7)
        mask = votes_for_target(g, 5, [])
        assert mask.shape == (100,) and mask.dtype == bool

    def test_seeding_never_reduces_votes(self):
        g, _ = build_case_study(150, seed=8)
        before = votes_for_target(g, 10, [])
        after = votes_for_target(g, 10, list(range(10)))
        assert not (before & ~after).any()


@pytest.mark.slow
def test_run_case_study_end_to_end():
    res = run_case_study(n=120, k=8, t=6, lam=15, seed=9)
    assert len(res["rows"]) == 7
    assert res["overall_with"] >= res["overall_without"]
    assert len(res["seeds"]) == 8
    for row in res["rows"]:
        assert row["votes_with"] >= 0 and row["total_users"] >= row["votes_with"]


def test_table4_is_pinned():
    """Table IV at ``jobs/run_table4.py``'s defaults (n = 640, k = 50,
    t = 20): the target's voters, overall and per domain, that
    EXPERIMENTS.md quotes."""
    res = run_case_study(n=640, k=50, t=20)
    assert (res["overall_without"], res["overall_with"], res["n"]) == (69, 358, 640)
    assert {row["domain"]: row["votes_with"] for row in res["rows"]} == {
        "DM": 182, "HCI": 97, "ML": 91, "CN": 124, "AL": 51, "SW": 34, "HW": 93,
    }
