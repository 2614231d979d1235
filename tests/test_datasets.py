"""Tests for the dataset registry (Table III analogues)."""
import numpy as np
import pytest

from repro.experiments.datasets import SPECS, TARGETS, load, table3_rows


class TestRegistry:
    def test_five_datasets(self):
        assert len(SPECS) == 5

    def test_candidate_counts_match_paper(self):
        # Table III: 2, 10, 4, 2, 2.
        assert SPECS["dblp-lite"].r == 2
        assert SPECS["yelp-lite"].r == 10
        assert SPECS["twitter-election-lite"].r == 4
        assert SPECS["twitter-sd-lite"].r == 2
        assert SPECS["twitter-mask-lite"].r == 2

    def test_paper_sizes_recorded(self):
        assert SPECS["dblp-lite"].paper_nodes == 63_910
        assert SPECS["twitter-sd-lite"].paper_nodes == 3_244_762

    def test_targets_valid(self):
        for name, tgt in TARGETS.items():
            assert 0 <= tgt < SPECS[name].r


@pytest.mark.parametrize("name", list(SPECS))
class TestLoad:
    def test_loads_and_validates(self, name):
        g = load(name, nodes=120)
        g.validate()
        assert g.n == 120 and g.r == SPECS[name].r

    def test_deterministic(self, name):
        a = load(name, nodes=80)
        b = load(name, nodes=80)
        assert np.array_equal(a.b0, b.b0) and np.array_equal(a.w, b.w)

    def test_default_size(self, name):
        g = load(name, nodes=SPECS[name].lite_nodes // 4)
        assert g.n == SPECS[name].lite_nodes // 4


class TestDegreesMatchShape:
    def test_dblp_denser_than_twitter(self):
        dblp = load("dblp-lite", nodes=200)
        tw = load("twitter-sd-lite", nodes=200)
        dblp_deg = (dblp.src != dblp.dst).sum() / dblp.n
        tw_deg = (tw.src != tw.dst).sum() / tw.n
        assert dblp_deg > 3 * tw_deg

    def test_stubbornness_recipe_applied(self):
        dblp = load("dblp-lite", nodes=300)  # variance recipe → stubborn
        tw = load("twitter-sd-lite", nodes=300)  # uniform
        assert dblp.d.mean() > tw.d.mean()


def test_table3_rows_structure():
    rows = table3_rows()
    assert len(rows) == 5
    for row in rows:
        assert row["lite_nodes"] == SPECS[row["dataset"]].lite_nodes
        assert row["paper_candidates"] == row["lite_candidates"]
        assert row["lite_edges"] > 0
