"""Benchmark: selection-time scaling of DM / RW / RS with graph size
(§VIII-E / Fig. 17 rendered as a table — the shape claim is DM grows
polynomially while RW/RS grow ~linearly, and RS is the fastest).

Cumulative score, k=5, t=8, on twitter-sd-lite subsamples up to the full
lite graph (n = 3 245), so DM's rows cover both exact evaluator kernels:
dense BLAS up to ``DENSE_N_THRESHOLD`` nodes, reach-local above it.
"""
import pytest

from repro.experiments.datasets import load
from repro.experiments.tables import method_selector

_K, _T = 5, 8


@pytest.mark.parametrize("n", [250, 500, 1000, 3245])
@pytest.mark.parametrize("method", ["DM", "RW", "RS"])
def test_selection_time(spark, benchmark, method, n):
    g = load("twitter-sd-lite", nodes=n)

    def run():
        return method_selector(
            spark, g, method, 0, _T, "cumulative", lam=20, theta=max(256, n // 2), seed=0
        )(_K)

    seeds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(seeds) == _K
