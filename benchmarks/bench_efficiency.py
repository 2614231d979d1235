"""Benchmark: selection-time scaling of DM / RW / RS with graph size
(§VIII-E / Fig. 17 rendered as a table — the shape claim is DM grows
polynomially while RW/RS grow ~linearly, and RS is the fastest).

Cumulative score, k=5, t=8, on twitter-sd-lite subsamples up to the full
lite graph (n = 3 245).  DM's rows run the layered kernel up to
``DENSE_N_THRESHOLD`` nodes and reach-local above it.

``test_exact_batch_time`` times one all-candidate ``ExactEvaluator`` batch
(S = ∅, plurality, t = 20) on the two small lite graphs, both on the
layered kernel: dblp-lite (n²/m = 20, 500 in-degree layers) and yelp-lite
(n²/m = 118).

``test_greedy_dm_time`` times ``greedy_dm`` at t = 20 on three paths: plain
greedy without a bound on the reach-local kernel (cumulative,
twitter-sd-lite, k = 10: every candidate each round, the path an evaluator
without ``bound`` such as perfbench's timing proxy runs), CELF on the
layered kernel (cumulative, dblp-lite, k = 6), and plain greedy pruned by
``ExactEvaluator.bound`` on the layered kernel (plurality, yelp-lite,
trailing target, k = 4: perfbench's yelp-plurality DM).  It records the
evaluator calls and candidates in ``extra_info``.  Its ``GED-T`` cases time
``method_selector``'s GED-T to k = 20 (the ``jobs/run_scores.py`` default
k_max) on those three graphs, paper targets.

``test_table6_time`` times ``table6`` at ``jobs/run_table6.py``'s defaults
(plurality, t = 20, the trailing target, k_max = 200) on yelp-lite and
dblp-lite, a fresh graph each round, and records the k* in ``extra_info``.

``test_exact_batch_time`` and ``test_greedy_dm_time`` build a fresh graph
and evaluator for every round (``setup``, not timed): each graph keeps its
all-candidate batch at S = ∅, so a reused graph would time a lookup.  ``test_dm_then_sandwich_time``
times what that sharing saves: perfbench's yelp-plurality order on one
fresh graph, plain plurality DM (k = 4), then ``sandwich_select`` with
S_F = the DM seeds.  It records the layered kernel's batch sizes and how
many held every node in ``extra_info`` (yelp-lite has run layered since the
kernel was added, so ``--parent`` counts the same batches).

``test_reach_time`` times ``graphs.graph.reach`` at t = 20 on its two
expansions, forced by setting ``DENSE_N_THRESHOLD``: the frontier BFS and
one bit per root.  ``sets`` are the sandwich's coverage sets (the reverse
reach of every user outside V_q^(t), plurality, trailing target); ``pairs``
the forward reach of every node with 2 blocked seeds, as reach-local DM
runs it.  The bits cover the small graphs, yelp-lite and dblp-lite, and
twitter-sd-lite shows why larger graphs keep the frontier.  It records the
set count and node total in ``extra_info``.

``test_rr_sets_time`` times the driver RR-set kernel ``baselines.im.rr_sets``
(2 000 sets, seed 3) for IC and LT on the three small lite graphs; perfbench
times RR-set generation only inside its Spark job.  It records the set
count and node total in ``extra_info``.

``test_generation_time`` measures where sketch generation should leave the
driver.  For each sketch kind (RW and RS reverse walks at t = 20, IC and LT
RR sets) on twitter-sd-lite and yelp-lite, it times
``opinion.walks.sketches`` making ids ``0..ids-1`` on the driver (in
``DRIVER_BLOCK``-id kernel calls) against one Spark job (``map_id_range`` +
``collect_sketches``), from 2^13 ids up to 2^20 (RR sets) or 2^22 (walks),
3 rounds up to 2^17 ids and 1 above.  RW runs ⌈ids/n⌉ walks per node on
the first ids.  It records the ids and the path nodes in ``extra_info``.
The smallest size at which Spark wins, over IC, LT and both graphs, sets
``baselines.im.RR_DRIVER_MAX``.  Walks have no such size up to 2^22, so
they are always made on the driver.

``benchmarks/record_efficiency.py`` runs this file and appends the medians
to ``BENCH_efficiency.json``.  ``test_selection_time`` and
``test_generation_time`` call ``method_selector`` and
``opinion.walks.sketches`` without a session argument, so they fail
against a ``--parent`` revision whose functions still take one first.
"""
import numpy as np
import pytest

import repro.graphs.graph as graph_mod
import repro.opinion.walks as walks
from repro.baselines.im import rr_sets
from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.sandwich import favorable_users_np, reach_sets_np, sandwich_select
from repro.experiments.datasets import TARGETS, load
from repro.experiments.tables import method_selector, table6, trailing_candidate

_K, _T = 5, 8


@pytest.mark.parametrize("n", [250, 500, 1000, 3245])
@pytest.mark.parametrize("method", ["DM", "RW", "RS"])
def test_selection_time(benchmark, method, n):
    g = load("twitter-sd-lite", nodes=n)

    def run():
        return method_selector(
            g, method, 0, _T, "cumulative", lam=20, theta=max(256, n // 2), seed=0
        )(_K)

    seeds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(seeds) == _K


@pytest.mark.parametrize("dataset", ["dblp-lite", "yelp-lite"])
def test_exact_batch_time(benchmark, dataset):
    def setup():
        g = load(dataset)
        return (ExactEvaluator(None, g, 0, 20, "plurality"), np.arange(g.n)), {}

    vals = benchmark.pedantic(
        lambda ev, cands: ev([], cands), setup=setup, rounds=3, warmup_rounds=1
    )
    assert vals.shape == (load(dataset).n,)


class _Counted:
    """``ExactEvaluator`` stand-in that counts each batch's candidates."""

    def __init__(self, ev):
        self.ev, self.graph, self.batches = ev, ev.graph, []

    def __call__(self, seeds, cand_seeds):
        self.batches.append(len(cand_seeds))
        return self.ev(seeds, cand_seeds)

    def score_of(self, seeds):
        return self.ev.score_of(seeds)

    def bound(self, seeds):
        return self.ev.bound(seeds)


@pytest.mark.parametrize(
    "dataset, score, k, celf",
    [
        ("twitter-sd-lite", "cumulative", 10, False),
        ("dblp-lite", "cumulative", 6, True),
        ("yelp-lite", "plurality", 4, False),
        ("twitter-sd-lite", "GED-T", 20, None),
        ("dblp-lite", "GED-T", 20, None),
        ("yelp-lite", "GED-T", 20, None),
    ],
)
def test_greedy_dm_time(benchmark, dataset, score, k, celf):
    g = load(dataset)
    if score == "GED-T":  # GED-T is cumulative whatever the table's score
        def setup():
            select = method_selector(load(dataset), "GED-T", TARGETS[dataset], 20, "plurality")
            return (select, k), {}

        run = benchmark.pedantic
        seeds = run(lambda select, k: select(k), setup=setup, rounds=3, warmup_rounds=1)
        assert len(seeds) == k == len(set(seeds))
        return
    target = TARGETS[dataset] if score == "cumulative" else trailing_candidate(g, 20, score)
    evs = []

    def setup():
        evs.append(_Counted(ExactEvaluator(None, load(dataset), target, 20, score)))
        return (evs[-1], k), {"celf": celf}

    seeds, trace = benchmark.pedantic(greedy_dm, setup=setup, rounds=3, warmup_rounds=1)
    ev = evs[-1]
    benchmark.extra_info.update(eval_calls=len(ev.batches), cands_evaluated=sum(ev.batches))
    assert len(seeds) == k and trace[-1] == ev.score_of(seeds)
    if score == "cumulative" and not celf:  # no bound: every candidate each round
        assert ev.batches == [g.n - i for i in range(k)]
    if score != "cumulative":  # one full batch, then at most two a round
        assert ev.batches[0] == g.n and len(ev.batches) <= 2 * k - 1


@pytest.mark.parametrize("dataset", ["yelp-lite", "dblp-lite"])
def test_table6_time(benchmark, dataset):
    target = trailing_candidate(load(dataset), 20, "plurality")

    def setup():
        return (load(dataset), target, 20, "plurality"), {"k_max": 200}

    df = benchmark.pedantic(table6, setup=setup, rounds=3, warmup_rounds=1)
    benchmark.extra_info.update(k_star=df["k_star"].tolist())
    assert df["win_within_budget"].all()


@pytest.mark.parametrize("dataset", ["yelp-lite"])
def test_dm_then_sandwich_time(benchmark, monkeypatch, dataset):
    sizes, kernel = [], ExactEvaluator._layered
    monkeypatch.setattr(
        ExactEvaluator, "_layered",
        lambda self, seeds, cands: sizes.append(len(cands)) or kernel(self, seeds, cands),
    )
    g = load(dataset)
    target = trailing_candidate(g, 20, "plurality")

    def setup():
        sizes.clear()
        return (load(dataset),), {}

    def run(graph):
        dm, _ = greedy_dm(ExactEvaluator(None, graph, target, 20, "plurality"), 4, celf=False)
        return sandwich_select(
            None, graph, target, 20, 4, "plurality", selector=lambda kk: dm[:kk]
        )

    res = benchmark.pedantic(run, setup=setup, rounds=3, warmup_rounds=1)
    benchmark.extra_info.update(row_batches=list(sizes), full_batches=sizes.count(g.n))
    assert len(res.seeds) == 4


@pytest.mark.parametrize("dataset", ["yelp-lite", "dblp-lite", "twitter-sd-lite"])
@pytest.mark.parametrize("kind", ["sets", "pairs"])
@pytest.mark.parametrize("path", ["frontier", "bits"])
def test_reach_time(benchmark, monkeypatch, path, kind, dataset):
    monkeypatch.setattr(graph_mod, "DENSE_N_THRESHOLD", 10**9 if path == "bits" else -1)
    g = load(dataset)
    if kind == "sets":
        target = trailing_candidate(g, 20, "plurality")
        users = np.flatnonzero(~favorable_users_np(g, target, 20, 1))
        args = (reach_sets_np, (g, 20, users), {})
    else:
        indptr, dst, _ = g.forward_csr()
        blocked = np.zeros(g.n, dtype=bool)
        blocked[[3, 7]] = True
        args = (graph_mod.reach, (indptr, dst, np.arange(g.n), 20), {"blocked": blocked})
    nodes, offsets = benchmark.pedantic(*args, rounds=7, iterations=1, warmup_rounds=1)
    benchmark.extra_info.update(sets=len(offsets) - 1, nodes=len(nodes))


@pytest.mark.parametrize("model", ["ic", "lt"])
@pytest.mark.parametrize("dataset", ["twitter-sd-lite", "yelp-lite", "dblp-lite"])
def test_rr_sets_time(benchmark, dataset, model):
    g = load(dataset)
    alias, ids = g.reverse_alias(), np.arange(2000)
    nodes, offsets = benchmark.pedantic(
        rr_sets, args=(alias, g.w, model, 3, ids), rounds=7, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info.update(sets=len(offsets) - 1, nodes=len(nodes))
    assert len(offsets) == len(ids) + 1


_GENERATION = [
    (kind, path, 1 << e)
    for kind, top in (("RW", 22), ("RS", 22), ("IC", 20), ("LT", 20))
    for e in range(13, top + 1)
    for path in ("driver", "spark")
]


@pytest.mark.parametrize("dataset", ["twitter-sd-lite", "yelp-lite"])
@pytest.mark.parametrize(
    "kind, path, ids", _GENERATION, ids=[f"{k}-{p}-{i}" for k, p, i in _GENERATION]
)
@pytest.mark.usefixtures("spark")
def test_generation_time(benchmark, kind, path, ids, dataset):
    g = load(dataset)
    alias = g.reverse_alias()
    if kind in ("IC", "LT"):
        def kernel(block):
            return rr_sets(alias, g.w, kind.lower(), 3, block)
    else:
        lam = -(-ids // g.n) if kind == "RW" else None

        def kernel(block):
            return walks.reverse_walks(alias, g.d[0], 3, block, 20, lam=lam)

    driver_max = ids if path == "driver" else 0
    nodes, offsets = benchmark.pedantic(
        walks.sketches, args=(ids, kernel, ("id", "path"), driver_max),
        rounds=3 if ids <= 1 << 17 else 1, iterations=1,
    )
    benchmark.extra_info.update(ids=ids, path_nodes=len(nodes))
    assert len(offsets) == ids + 1
