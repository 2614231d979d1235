"""Tests for the five voting scores — NumPy, the DuckDB oracle, and the
exact reproduction of paper Table I."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np
from repro.oracle import assert_equivalent, opinions_pdf
from repro.voting.scores import (
    duels,
    rank,
    score_change,
    score_np,
    score_rows,
    unit_contribution,
)

# ------------------------------------------------------------------ #
# Table I — exact reproduction
# ------------------------------------------------------------------ #
TABLE1 = {
    (): ([0.40, 0.80, 0.60, 0.75], 2.55, 2, 0),
    (0,): ([1.00, 0.80, 0.75, 0.75], 3.30, 2, 0),
    (1,): ([0.40, 1.00, 0.65, 0.75], 2.80, 2, 0),
    (2,): ([0.40, 0.80, 1.00, 0.95], 3.15, 4, 1),
    (3,): ([0.40, 0.80, 0.60, 1.00], 2.80, 3, 1),
    (0, 1): ([1.00, 1.00, 0.80, 0.75], 3.55, 3, 1),
}


@pytest.mark.parametrize("seed_set", list(TABLE1))
class TestTable1:
    def test_opinions(self, seed_set):
        g = running_example()
        b = opinions_at_horizon_np(g, 1, 0, seed_set)
        assert np.allclose(np.round(b[0], 2), TABLE1[seed_set][0])

    def test_cumulative(self, seed_set):
        b = opinions_at_horizon_np(running_example(), 1, 0, seed_set)
        assert np.isclose(score_np(b, 0, "cumulative"), TABLE1[seed_set][1])

    def test_plurality(self, seed_set):
        b = opinions_at_horizon_np(running_example(), 1, 0, seed_set)
        assert score_np(b, 0, "plurality") == TABLE1[seed_set][2]

    def test_copeland(self, seed_set):
        b = opinions_at_horizon_np(running_example(), 1, 0, seed_set)
        assert score_np(b, 0, "copeland") == TABLE1[seed_set][3]


def test_table1_competitor_opinions_at_t1():
    """Paper caption: c2 opinions at t=1 are 0.35, 0.75, ~0.78, 0.90."""
    b = fj_diffuse_np(running_example(), 1)
    assert np.allclose(np.round(b[1], 2), [0.35, 0.75, 0.78, 0.90], atol=0.005)


# ------------------------------------------------------------------ #
# NumPy semantics
# ------------------------------------------------------------------ #
class TestNumpyScores:
    def test_rank_counts_ties_as_at_least(self):
        b = np.array([[0.5, 0.3], [0.5, 0.6], [0.2, 0.1]])
        # User 0: b_q=0.5 tied with candidate 1 → β = 2.
        assert rank(b[0], b[1:]).tolist() == [2, 2]

    def test_plurality_requires_strict_top(self):
        b = np.array([[0.5], [0.5]])
        assert score_np(b, 0, "plurality") == 0  # tie is not a win (β = 2 > 1)

    def test_p_approval_generalizes_plurality(self):
        g = random_instance(50, r=4, seed=0)
        b = fj_diffuse_np(g, 3)
        assert score_np(b, 1, "plurality") == score_np(b, 1, "p_approval", p=1)

    def test_p_approval_monotone_in_p(self):
        g = random_instance(50, r=4, seed=1)
        b = fj_diffuse_np(g, 3)
        vals = [score_np(b, 0, "p_approval", p=p) for p in range(1, 5)]
        assert vals == sorted(vals)

    def test_p_approval_at_r_counts_everyone(self):
        g = random_instance(50, r=3, seed=2)
        b = fj_diffuse_np(g, 2)
        assert score_np(b, 0, "p_approval", p=3) == g.n

    def test_positional_weights_reduce_score(self):
        g = random_instance(50, r=3, seed=3)
        b = fj_diffuse_np(g, 2)
        full = score_np(b, 0, "p_approval", p=2)
        weighted = score_np(
            b, 0, "positional_p_approval", p=2, omega=np.array([1.0, 0.5, 0.0])
        )
        assert weighted <= full

    def test_positional_omega_zero_tail_equals_lower_p(self):
        g = random_instance(60, r=3, seed=4)
        b = fj_diffuse_np(g, 2)
        # ω = [1, 0, ...] with p=2 ≡ 1-approval (paper §VIII-C: ω[p]=0).
        assert score_np(
            b, 0, "positional_p_approval", p=2, omega=np.array([1.0, 0.0, 0.0])
        ) == score_np(b, 0, "p_approval", p=1)

    @pytest.mark.parametrize(
        "omega",
        [[1.0], [0.2, 1.0], [1.0, -0.5], [1.0, np.nan]],
        ids=["fewer-than-p", "increasing", "negative", "nan"],
    )
    def test_positional_weights_must_be_non_increasing_and_non_negative(self, omega):
        """The paper's ω₁ ≥ … ≥ ω_p ≥ 0, with one weight per approved rank."""
        b = fj_diffuse_np(random_instance(60, r=3, seed=4), 2)
        with pytest.raises(ValueError, match="positional weights"):
            score_np(b, 0, "positional_p_approval", p=2, omega=np.array(omega))

    def test_copeland_bounded_by_r_minus_1(self):
        g = random_instance(50, r=5, seed=5)
        b = fj_diffuse_np(g, 2)
        for q in range(5):
            assert 0 <= score_np(b, q, "copeland") <= 4

    def test_copeland_condorcet_winner(self):
        b = np.array([[0.9, 0.9, 0.9], [0.1, 0.5, 0.2], [0.2, 0.1, 0.3]])
        assert score_np(b, 0, "copeland") == 2  # beats everyone → Condorcet winner

    def test_copeland_strict_majority_needed(self):
        # 1 user above, 1 below → no win (Eq. 7 uses strict >).
        b = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert score_np(b, 0, "copeland") == 0

    def test_cumulative_is_row_sum(self):
        g = random_instance(40, seed=6)
        b = fj_diffuse_np(g, 2)
        assert np.isclose(score_np(b, 1, "cumulative"), b[1].sum())

    def test_score_np_dispatch_unknown(self):
        with pytest.raises(ValueError):
            score_np(np.zeros((2, 3)), 0, "borda")

    @pytest.mark.parametrize(
        "score", ["cumulative", "plurality", "p_approval", "copeland"]
    )
    def test_brute_force_equivalence(self, score):
        """Score semantics vs a direct per-user loop."""
        g = random_instance(30, r=3, seed=7)
        b = fj_diffuse_np(g, 2)
        q, p = 0, 2
        if score == "cumulative":
            exp = sum(b[q, v] for v in range(g.n))
        elif score in ("plurality", "p_approval"):
            pp = 1 if score == "plurality" else p
            exp = sum(
                1
                for v in range(g.n)
                if sum(b[x, v] >= b[q, v] for x in range(g.r)) <= pp
            )
        else:
            exp = sum(
                1
                for x in range(g.r)
                if x != q
                and sum(b[q, v] > b[x, v] for v in range(g.n))
                > sum(b[q, v] < b[x, v] for v in range(g.n))
            )
        assert np.isclose(score_np(b, q, score, p=p), exp)


# ------------------------------------------------------------------ #
# Unknown score names
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("name", ["borda", "Plurality"])
class TestUnknownScore:
    """A name outside SCORES raises instead of being scored as plurality."""

    def test_score_np(self, name):
        b = fj_diffuse_np(random_instance(20, r=3, seed=9), 2)
        with pytest.raises(ValueError, match="unknown score"):
            score_np(b, 0, name)

    # Each kernel in turn: reach-local above the node threshold, layered
    # below it.
    @pytest.mark.parametrize(
        "threshold, n, avg_deg, kernel",
        [(0, 20, 4.0, "_reach_local"), (10**9, 150, 1.0, "_layered")],
        ids=["reach_local", "layered"],
    )
    def test_exact_evaluator(self, monkeypatch, name, threshold, n, avg_deg, kernel):
        import repro.core.dm as dm_mod

        monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", threshold)
        g = random_instance(n, r=3, seed=9, avg_deg=avg_deg)
        ev = dm_mod.ExactEvaluator(None, g, 0, 2, name)
        ran, fn = [], getattr(ev, kernel)
        monkeypatch.setattr(ev, kernel, lambda *a: ran.append(kernel) or fn(*a))
        with pytest.raises(ValueError, match="unknown score"):
            ev([5], [0, 1, 2])
        assert ran == [kernel]
        with pytest.raises(ValueError, match="unknown score"):
            ev([], [0, 1, 2])  # scoring the kept batch at S = ∅

    def test_sketch_select(self, name):
        from repro.core.sketch import SketchSet

        sk = SketchSet(
            5, [3, 2, 4], [0, 2, 3], [0.5, 0.0], score=name, others=np.full((1, 2), 0.3)
        )
        with pytest.raises(ValueError, match="unknown score"):
            sk.select(1)


# ------------------------------------------------------------------ #
# score_change ≡ score_rows after − score_rows before
# ------------------------------------------------------------------ #
@pytest.mark.parametrize(
    "score, kw",
    [
        ("plurality", {}),
        ("p_approval", {"p": 2}),
        ("positional_p_approval", {"p": 3, "omega": np.array([1.0, 0.6, 0.3, 0.0])}),
        ("copeland", {}),
    ],
    ids=["plurality", "p_approval", "positional_p_approval", "copeland"],
)
def test_score_change_is_difference_of_scores(score, kw):
    """Per group, the change equals F after all of the group's units move
    minus F before.  Opinions are rounded to 1 decimal (ties everywhere),
    the last opponent ties the target on every user (a drawn duel), one
    unit per group moves to exactly 1.0, and group 5 has no pairs."""
    b_all = np.round(fj_diffuse_np(random_instance(40, r=4, seed=21), 2), 1)
    b, others = b_all[0], np.vstack([b_all[1:], b_all[0]])
    rng = np.random.default_rng(21)
    ngroups, per_group = 6, 8
    group = np.repeat(np.arange(ngroups - 1), per_group)
    unit = np.concatenate(
        [rng.choice(len(b), per_group, replace=False) for _ in range(ngroups - 1)]
    )
    new = np.round(rng.uniform(0.0, 1.0, len(unit)), 1)
    new[::per_group] = 1.0
    order = rng.permutation(len(unit))  # pairs need not be sorted by group
    group, unit, new = group[order], unit[order], new[order]

    got = score_change(b, others, score, group, unit, new, ngroups, **kw)
    assert got.shape == (ngroups,)
    before = score_rows(b, others, score, **kw)
    for grp in range(ngroups):
        after = b.copy()
        hit = group == grp
        after[unit[hit]] = new[hit]
        want = score_rows(after, others, score, **kw) - before
        assert got[grp] == pytest.approx(want, abs=1e-12), grp
    assert got[ngroups - 1] == 0


# ------------------------------------------------------------------ #
# NumPy rules vs the DuckDB oracle
# ------------------------------------------------------------------ #
def _opinion_cases(n, r, seed):
    """Opinions at t = 2, as computed and rounded to 1 decimal (many ties)."""
    b = fj_diffuse_np(random_instance(n, r=r, seed=seed), 2)
    return b, np.round(b, 1)


def test_cumulative_oracle():
    for b in _opinion_cases(50, 2, 11):
        assert_equivalent(
            pd.DataFrame({"s": [score_np(b, 0, "cumulative")]}),
            "SELECT SUM(b) AS s FROM ops WHERE cand = 0",
            ops=opinions_pdf(b),
        )


def test_rank_aggregate_oracle():
    """The β-rank self-join (basis of the plurality variants) ≡ ``rank``."""
    sql = """
        SELECT o.node AS node, o.cand AS cand,
               SUM(CASE WHEN x.b >= o.b THEN 1 ELSE 0 END) AS beta
        FROM ops o JOIN ops x ON o.node = x.node
        GROUP BY o.node, o.cand
    """
    for b in _opinion_cases(40, 3, 12):
        ranks = np.array([rank(b[q], np.delete(b, q, axis=0)) for q in range(len(b))])
        got = opinions_pdf(ranks).rename(columns={"b": "beta"})
        assert_equivalent(got, sql, ops=opinions_pdf(b))


def test_copeland_duel_oracle():
    """Per-opponent above/below counts ≡ ``duels`` summed over users."""
    q = 0
    sql = f"""
        SELECT x.cand AS cand,
               SUM(CASE WHEN q.b > x.b THEN 1 ELSE 0 END) AS above,
               SUM(CASE WHEN q.b < x.b THEN 1 ELSE 0 END) AS below
        FROM ops x JOIN (SELECT node, b FROM ops WHERE cand = {q}) q
          ON x.node = q.node
        WHERE x.cand <> {q}
        GROUP BY x.cand
    """
    for b in _opinion_cases(40, 4, 13):
        above, below = duels(b[q], np.delete(b, q, axis=0))
        got = pd.DataFrame(
            {
                "cand": np.delete(np.arange(len(b)), q),
                "above": above.sum(axis=-1),
                "below": below.sum(axis=-1),
            }
        )
        assert_equivalent(got, sql, ops=opinions_pdf(b))


def test_positional_p_approval_oracle():
    """Per-user ω[β]·1[β ≤ p] at p = 2 ≡ ``unit_contribution``."""
    q, p = 1, 2
    omega = np.array([1.0, 0.6, 0.3, 0.0])
    sql = f"""
        SELECT r.node AS node, COALESCE(w.w, 0.0) AS contrib
        FROM (
            SELECT o.node, SUM(CASE WHEN x.b >= o.b THEN 1 ELSE 0 END) AS beta
            FROM ops o JOIN ops x ON o.node = x.node
            WHERE o.cand = {q}
            GROUP BY o.node
        ) r LEFT JOIN omega w ON w.pos = r.beta AND r.beta <= {p}
    """
    for b in _opinion_cases(60, 4, 10):
        contrib = unit_contribution(
            b[q], np.delete(b, q, axis=0), "positional_p_approval", p=p, omega=omega
        )
        got = pd.DataFrame({"node": np.arange(b.shape[1]), "contrib": contrib})
        assert_equivalent(
            got,
            sql,
            ops=opinions_pdf(b),
            omega=pd.DataFrame({"pos": np.arange(1, len(omega) + 1), "w": omega}),
        )
