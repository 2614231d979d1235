"""Benchmark: accuracy/efficiency comparison across all 9 methods
(Figures 6–8 rendered as tables; one benchmark per voting score).

Scaled-down runs (dblp-lite @ n=200, t=8, k ≤ 10).  Each benchmark also
prints its comparison table; the EXPERIMENTS.md numbers come from
`jobs/run_scores.py` at the full lite sizes.  The shape claim on these
runs (DM/RW/RS beat the baselines) is checked in
`tests/test_tables.py::TestComparisonHarness`.
"""
import pytest

from repro.experiments.datasets import load
from repro.experiments.tables import METHODS, scores_comparison

_KS = [5, 10]
_T = 8


@pytest.fixture(scope="module")
def graph():
    return load("dblp-lite", nodes=200)


def _run(spark, graph, score):
    return scores_comparison(
        spark, graph, 0, _T, _KS, [score],
        methods=METHODS, lam=20, theta=400, im_theta=2000,
    )


@pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
def test_scores_comparison(spark, graph, benchmark, score):
    df = benchmark.pedantic(lambda: _run(spark, graph, score), rounds=1, iterations=1)
    assert len(df) == len(METHODS) * len(_KS)
    print()
    print(df.to_string(index=False))
