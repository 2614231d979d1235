"""Benchmark: selection-time scaling of DM / RW / RS with graph size
(§VIII-E / Fig. 17 rendered as a table — the shape claim is DM grows
polynomially while RW/RS grow ~linearly, and RS is the fastest).

Cumulative score, k=5, t=8, on twitter-sd-lite subsamples up to the full
lite graph (n = 3 245).  twitter-sd-lite is sparse (n²/m ≥ 64 at every
size), so DM's rows run the layered kernel up to ``DENSE_N_THRESHOLD``
nodes and reach-local above it.

``test_exact_batch_time`` times one all-candidate ``ExactEvaluator`` batch
(S = ∅, plurality, t = 20) on the two small lite graphs: dense BLAS on
dblp-lite (n²/m = 20), the layered kernel on yelp-lite (n²/m = 118).  No
selection benchmark reaches the dense kernel otherwise.
"""
import numpy as np
import pytest

from repro.core.dm import ExactEvaluator
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


@pytest.mark.parametrize("dataset", ["dblp-lite", "yelp-lite"])
def test_exact_batch_time(benchmark, dataset):
    g = load(dataset)
    ev = ExactEvaluator(None, g, 0, 20, "plurality")
    cands = np.arange(g.n)
    vals = benchmark.pedantic(ev, args=([], cands), rounds=3, iterations=1, warmup_rounds=1)
    assert vals.shape == (g.n,)
