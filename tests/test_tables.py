"""Tests for the table harnesses (repro.experiments.tables)."""
import numpy as np
import pytest

from repro.experiments.tables import (
    METHODS,
    scores_comparison,
    select_with_method,
    table1,
    table3,
    table6,
)
from repro.core.sandwich import sandwich_select
from repro.experiments.datasets import TARGETS, load
from repro.graphs.generators import random_instance


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
    def test_unknown_method_raises(self, spark):
        g = random_instance(20, seed=0)
        with pytest.raises(ValueError):
            select_with_method(spark, g, "XX", 0, 2, 2, "cumulative")

    @pytest.mark.parametrize("method", ["DC", "PR", "RWR"])
    def test_centrality_methods_return_k(self, spark, method):
        g = random_instance(30, seed=1)
        seeds = select_with_method(spark, g, method, 0, 2, 3, "cumulative")
        assert len(seeds) == 3 and len(set(seeds)) == 3

    def test_dm_method(self, spark):
        g = random_instance(25, seed=2)
        seeds = select_with_method(spark, g, "DM", 0, 2, 2, "cumulative")
        assert len(seeds) == 2


@pytest.mark.slow
class TestComparisonHarness:
    def test_scores_comparison_small(self, spark):
        g = random_instance(40, r=2, seed=3, avg_deg=2.5)
        df = scores_comparison(
            spark, g, 0, 2, [1, 2], ["cumulative"],
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

    def test_dm_dominates_on_cumulative(self, spark):
        g = random_instance(40, r=2, seed=4, avg_deg=2.5)
        df = scores_comparison(
            spark, g, 0, 2, [3], ["cumulative"],
            methods=("DM", "DC"), lam=10, theta=200, im_theta=200,
        )
        f = df.set_index("method")["F"]
        assert f["DM"] >= f["DC"] - 1e-9

    def test_table6_shape(self, spark):
        g = random_instance(40, r=2, seed=5, avg_deg=3.0)
        df = table6(spark, g, 0, 2, "plurality", k_max=20, lam=10, theta=300)
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
    def test_method_returns_k_distinct_nodes(self, spark, small, method, score):
        target = TARGETS["yelp-lite"]
        self._check(
            small,
            lambda t, k: select_with_method(spark, small, method, target, t, k, score),
        )

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_sandwich_returns_k_distinct_nodes(self, spark, small, score):
        target = TARGETS["yelp-lite"]
        self._check(
            small,
            lambda t, k: sandwich_select(spark, small, target, t, k, score).seeds,
        )
