"""Tests for the table harnesses (repro.experiments.tables)."""
import numpy as np
import pytest

from repro.experiments.tables import (
    METHODS,
    method_selector,
    scores_comparison,
    table1,
    table3,
    table6,
    trailing_candidate,
)
from repro.core.sandwich import sandwich_select
from repro.experiments.datasets import TARGETS, load
from repro.graphs.generators import random_instance
from repro.opinion.fj import opinions_at_horizon_np
from repro.voting.scores import score_np
from tests.test_dm import _row_batches


class TestTable1:
    def test_matches_paper_exactly(self):
        df = table1()
        assert df["cumulative"].tolist() == [2.55, 3.30, 2.80, 3.15, 2.80, 3.55]
        assert df["plurality"].tolist() == [2, 2, 2, 4, 3, 3]
        assert df["copeland"].tolist() == [0, 0, 0, 1, 1, 1]

    def test_opinion_columns(self):
        df = table1()
        assert df.loc[0, ["user1", "user2", "user3", "user4"]].tolist() == [
            0.40, 0.80, 0.60, 0.75,
        ]


class TestTable3:
    def test_five_rows_with_paper_numbers(self):
        df = table3()
        assert len(df) == 5
        assert df["paper_nodes"].sum() == 63910 + 966240 + 2246604 + 3244762 + 2341769


class TestDispatch:
    def test_unknown_method_raises(self):
        g = random_instance(20, seed=0)
        with pytest.raises(ValueError):
            method_selector(g, "XX", 0, 2, "cumulative")

    @pytest.mark.parametrize("method", ["DC", "PR", "RWR"])
    def test_centrality_methods_return_k(self, method):
        g = random_instance(30, seed=1)
        seeds = method_selector(g, method, 0, 2, "cumulative")(3)
        assert len(seeds) == 3 and len(set(seeds)) == 3

    def test_dm_method(self):
        g = random_instance(25, seed=2)
        seeds = method_selector(g, "DM", 0, 2, "cumulative")(2)
        assert len(seeds) == 2

    def test_rs_budget_below_one_raises(self):
        # θ = 0 is a budget, not "use the default"; it raises before any job.
        g = random_instance(20, seed=0)
        with pytest.raises(ValueError, match="budget"):
            method_selector(g, "RS", 0, 2, "cumulative", theta=0)

    def test_im_budget_below_one_raises(self):
        g = random_instance(20, seed=0)
        with pytest.raises(ValueError, match="budget"):
            method_selector(g, "IC", 0, 2, "cumulative", im_theta=0)(3)


class TestSelectProtocol:
    """Every §VIII-A method is a resumable ``select(k)`` over one sequence."""

    @pytest.fixture(scope="class")
    def graph(self):
        return random_instance(20, r=2, seed=6, avg_deg=3.0)

    def _selector(self, g, method, score):
        return method_selector(g, method, 0, 2, score, lam=10, theta=200, im_theta=200)

    # Rank scores change only the seeds of DM, RW and RS.
    @pytest.mark.parametrize(
        "method, score",
        [(m, "cumulative") for m in METHODS] + [(m, "plurality") for m in ("DM", "RW", "RS")],
    )
    def test_extends_and_returns_prefixes(self, graph, method, score):
        select = self._selector(graph, method, score)
        first = select(3)
        seq = select(6)
        assert seq[:3] == first
        assert seq == self._selector(graph, method, score)(6)
        assert select(2) == seq[:2]

    @pytest.mark.parametrize("method", ["IC", "LT"])
    def test_im_generates_rr_sets_once(self, monkeypatch, graph, method):
        """IC/LT keep their RR sets: four ``select(k)`` calls run one
        generation, and each prefix is ``select_seeds_im``'s k seeds."""
        import repro.baselines.im as im

        made = []
        generate = im.sketches
        monkeypatch.setattr(im, "sketches", lambda *a, **kw: made.append(a) or generate(*a, **kw))
        select = self._selector(graph, method, "cumulative")
        got = {k: select(k) for k in (2, 5, 1, 6)}
        assert len(made) == 1
        for k, seeds in got.items():
            assert seeds == im.select_seeds_im(None, graph, method.lower(), k, theta=200)

    @pytest.mark.parametrize(
        "method, score", [("DM", "plurality"), ("DM", "cumulative"), ("GED-T", "plurality")]
    )
    def test_exact_greedy_resumes_its_run(self, monkeypatch, method, score):
        """DM and GED-T draw from one greedy run: ``select(6)`` after
        ``select(3)`` is a fresh ``select(6)``, and no round at S ≠ ∅
        scores every candidate.  CELF's batches there hold at most 32; plain
        greedy makes at most two calls a round, the first of at most 32."""
        from repro.core.dm import ExactEvaluator

        calls, call = [], ExactEvaluator.__call__

        def logged(ev, seeds, cands):
            calls.append((len(seeds), len(cands)))
            return call(ev, seeds, cands)

        def make():
            return random_instance(120, r=3, seed=7, avg_deg=3.0)

        monkeypatch.setattr(ExactEvaluator, "__call__", logged)
        g = make()
        select = method_selector(g, method, 0, 2, score)
        assert len(select(3)) == 3
        seq = select(6)
        rounds = [[size for s, size in calls if s == i] for i in range(1, 6)]
        assert seq == method_selector(make(), method, 0, 2, score)(6)
        assert calls[0] == (0, g.n)
        assert all(rounds)
        if method == "GED-T" or score == "cumulative":  # CELF
            assert all(size <= 32 for sizes in rounds for size in sizes)
        else:
            assert all(len(sizes) <= 2 and sizes[0] <= 32 for sizes in rounds)

    @pytest.mark.parametrize("method", METHODS)
    def test_k_outside_0_n_raises(self, graph, method):
        select = self._selector(graph, method, "cumulative")
        select(2)  # also after a prefix has been selected
        for k in (-1, graph.n + 1):
            with pytest.raises(ValueError, match="cannot select"):
                select(k)


def test_scores_comparison_runs_one_empty_batch(monkeypatch):
    """DM and GED-T for three scores on one graph share one all-candidate
    batch at S = ∅: GED-T's all-candidate rounds at S ≠ ∅ keep nothing."""
    sizes = _row_batches(monkeypatch)
    g = load("yelp-lite", nodes=400)
    q = trailing_candidate(g, 20, "cumulative")
    scores = ["cumulative", "plurality", "copeland"]
    df = scores_comparison(g, q, 20, [5], scores, methods=("DM", "GED-T"))
    assert len(df) == 6
    assert sizes.count(g.n) == 1 and sizes[0] == g.n


def test_table6_dblp_lite_is_pinned():
    """Table VI at ``jobs/run_table6.py``'s defaults on dblp-lite (plurality,
    t = 20, the trailing target, k_max = 200): the rows EXPERIMENTS.md
    quotes."""
    g = load("dblp-lite")
    target = trailing_candidate(g, 20, "plurality")
    df = table6(g, target, 20, "plurality", k_max=200)
    assert target == 1
    assert df["method"].tolist() == ["DM", "RW", "RS"]
    assert df["k_star"].tolist() == [34, 42, 54]
    assert df["win_within_budget"].all()


@pytest.mark.slow
class TestComparisonHarness:
    def test_scores_comparison_small(self):
        g = random_instance(40, r=2, seed=3, avg_deg=2.5)
        df = scores_comparison(
            g, 0, 2, [1, 2], ["cumulative"],
            methods=("DM", "RW", "DC"), lam=10, theta=200, im_theta=200,
        )
        assert set(df["method"]) == {"DM", "RW", "DC"}
        assert len(df) == 6  # 3 methods × 2 k values
        # F non-decreasing in k for each method (same seed sequence prefix).
        for m in ["DM", "RW", "DC"]:
            sub = df[df["method"] == m].sort_values("k")
            assert sub["F"].is_monotonic_increasing or np.allclose(
                sub["F"].diff().dropna(), 0
            ) or (sub["F"].diff().dropna() >= -1e-9).all()

    def test_score_free_methods_select_once_per_table(self, monkeypatch):
        """Only DM, RW and RS read the score: every other method selects
        once per table, and every row's F is the exact F of its prefix."""
        import repro.experiments.tables as tables_mod

        calls, select = [], tables_mod.method_selector
        monkeypatch.setattr(
            tables_mod, "method_selector",
            lambda g, method, *a, **kw: calls.append(method) or select(g, method, *a, **kw),
        )
        g, kw = random_instance(40, r=3, seed=6, avg_deg=2.5), {"lam": 10, "theta": 200}
        scores = ["cumulative", "plurality", "copeland"]
        df = scores_comparison(g, 0, 2, [1, 3], scores, methods=("DM", "RW", "GED-T", "DC"), **kw)
        assert sorted(calls) == sorted(["DM", "RW"] * 3 + ["GED-T", "DC"])
        assert len(df) == 3 * 4 * 2
        for row in df.itertuples():
            seeds = select(g, row.method, 0, 2, row.score, **kw)(row.k)
            assert row.F == score_np(opinions_at_horizon_np(g, 2, 0, seeds), 0, row.score)

    def test_dm_dominates_on_cumulative(self):
        g = random_instance(40, r=2, seed=4, avg_deg=2.5)
        df = scores_comparison(
            g, 0, 2, [3], ["cumulative"],
            methods=("DM", "DC"), lam=10, theta=200, im_theta=200,
        )
        f = df.set_index("method")["F"]
        assert f["DM"] >= f["DC"] - 1e-9

    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_proposed_methods_beat_baselines(self, score):
        """Shape claim (paper §VIII-C): the proposed methods beat the
        IC/LT/PR/RWR/DC baselines at the largest k."""
        ks = [5, 10]
        df = scores_comparison(
            load("dblp-lite", nodes=200), 0, 8, ks, [score],
            methods=METHODS, lam=20, theta=400, im_theta=2000,
        )
        top = df[df["k"] == max(ks)].set_index("method")["F"]
        assert max(top["DM"], top["RW"], top["RS"]) >= max(
            top["IC"], top["LT"], top["PR"], top["RWR"], top["DC"]
        ) - 1e-9

    def test_table6_shape(self):
        g = random_instance(40, r=2, seed=5, avg_deg=3.0)
        df = table6(g, 0, 2, "plurality", k_max=20, lam=10, theta=300)
        assert set(df["method"]) == {"DM", "RW", "RS"}
        won = df[df["win_within_budget"]]
        assert (won["k_star"] >= 0).all()


def test_methods_tuple_matches_paper_list():
    assert METHODS == ("DM", "RW", "RS", "IC", "LT", "GED-T", "PR", "RWR", "DC")


class TestDegenerateInputs:
    """t = 0 and k ∈ {0, 1, n} on a 30-node yelp-lite: every method, each
    score family and the sandwich return k distinct in-range nodes."""

    SCORES = ("cumulative", "plurality", "copeland")

    @pytest.fixture(scope="class")
    def small(self):
        return load("yelp-lite", nodes=30)

    def _check(self, g, pick):
        for t in (0, 3):
            for k in (0, 1, g.n):
                seeds = pick(t, k)
                assert len(seeds) == k and len(set(seeds)) == k, (t, k, seeds)
                assert all(0 <= s < g.n for s in seeds), (t, k, seeds)

    @pytest.mark.parametrize("score", SCORES)
    @pytest.mark.parametrize("method", METHODS)
    def test_method_returns_k_distinct_nodes(self, small, method, score):
        target = TARGETS["yelp-lite"]
        self._check(
            small,
            lambda t, k: method_selector(small, method, target, t, score)(k),
        )

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_sandwich_returns_k_distinct_nodes(self, small, score):
        target = TARGETS["yelp-lite"]
        self._check(
            small,
            lambda t, k: sandwich_select(None, small, target, t, k, score).seeds,
        )
