"""Tests for the shared sketch greedy (repro.core.sketch): seeds equal a
brute-force greedy for every score and both unit kinds (RW users, RS
sketches), no Spark job inside ``select``, and the tie/fallback rules."""
import numpy as np
import pytest

from repro.core.dm import others_at_horizon
from repro.core.rs import RSSelector
from repro.core.rw import RWSelector
from repro.core.sketch import SketchSet
from repro.graphs.generators import random_instance
from repro.voting.scores import duels, unit_contribution
from tests.reference import truncated_estimate_np, walk_frame

OMEGA = np.array([1.0, 0.5, 0.25])
SCORES = {
    "cumulative": {},
    "plurality": {},
    "p_approval": {"p": 2},
    "positional_p_approval": {"p": 2, "omega": OMEGA},
    "copeland": {},
}


def _reference_greedy(n, walks, units, per_unit, others, scale, score, k, kw):
    """Greedy that re-estimates every walk from scratch per candidate.

    F̂(S) = scale · Σ_units contribution(mean truncated estimate of the
    unit's walks); candidates are the unselected nodes on a walk prefix
    that ends at the first seed.
    """
    paths = [list(p) for p in walks["path"]]
    ops = walks["op"].to_numpy()

    def fhat(S):
        est = [truncated_estimate_np(p, o, S) for p, o in zip(paths, ops)]
        b = np.bincount(units, weights=est) / per_unit
        if score == "cumulative":
            return b.sum() * scale
        if score == "copeland":
            above, below = duels(b, others)
            return float((above.sum(axis=-1) > below.sum(axis=-1)).sum())
        return unit_contribution(b, others, score, **kw).sum() * scale

    seeds: list[int] = []
    for _ in range(k):
        S = set(seeds)
        live = set()
        for p in paths:
            cut = next((i + 1 for i, v in enumerate(p) if v in S), len(p))
            live.update(p[:cut])
        cands = sorted(live - S)
        if not cands:
            seeds.append(min(set(range(n)) - S))
            continue
        base = fhat(S)
        gains = [fhat(S | {v}) - base for v in cands]
        seeds.append(cands[int(np.argmax(gains))])
    return seeds


@pytest.fixture(scope="module")
def graph():
    return random_instance(40, r=3, seed=17, avg_deg=3.0)


@pytest.mark.parametrize("score", list(SCORES))
@pytest.mark.usefixtures("spark")
def test_rw_seeds_equal_bruteforce(graph, score):
    t, lam, k = 3, 6, 3
    kw = SCORES[score]
    sel = RWSelector(None, graph, 0, t, score, lam=lam, seed=3, **kw)
    walks = walk_frame(sel.walks, graph.b0[0])
    others = others_at_horizon(graph, 0, t)
    ref = _reference_greedy(
        graph.n, walks, walks["start"].to_numpy(), lam, others, 1.0, score, k, kw
    )
    assert sel.select(k) == ref


@pytest.mark.parametrize("score", list(SCORES))
@pytest.mark.usefixtures("spark")
def test_rs_seeds_equal_bruteforce(graph, score):
    t, theta, k = 3, 160, 3
    kw = SCORES[score]
    sel = RSSelector(None, graph, 0, t, score, theta=theta, seed=4, **kw)
    walks = walk_frame(sel.walks, graph.b0[0])
    others = others_at_horizon(graph, 0, t)[:, walks["start"].to_numpy()]
    ref = _reference_greedy(
        graph.n, walks, np.arange(theta), 1, others, graph.n / theta, score, k, kw
    )
    assert sel.select(k) == ref


def test_select_starts_no_spark_job(spark, graph):
    sel = RWSelector(None, graph, 0, 3, "copeland", lam=5, seed=5)
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    try:
        sc.setJobGroup("sketch-select", "select")
        sel.select(3)
        sel.estimated_score()
        assert list(tracker.getJobIdsForGroup("sketch-select")) == []
        sel.walks.count()  # the probe does see a job in this group
        assert len(tracker.getJobIdsForGroup("sketch-select")) > 0
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def _handmade(retire):
    # Sketch A = [3, 2] with op 0.5, sketch B = [4] with op 0, n = 5.
    return SketchSet(5, [3, 2, 4], [0, 2, 3], [0.5, 0.0], retire=retire)


def test_ties_and_zero_gain_fallback_for_walks():
    # 4 (gain 1) → 2 (ties 3 at 0.5; smaller id) → 3 (gain 0, still on A's
    # live prefix) → 0 and 1 (no live candidate left: smallest ids).
    assert _handmade(retire=False).select(5) == [4, 2, 3, 0, 1]


def test_zero_gain_fallback_for_sets():
    # A hit retires the whole set, so 3 leaves the candidates with it.
    assert _handmade(retire=True).select(5) == [4, 2, 0, 1, 3]


def test_select_is_resumable():
    sk = _handmade(retire=False)
    assert sk.select(2) == [4, 2]
    assert sk.select(4) == [4, 2, 3, 0]


def test_k_above_n_raises():
    with pytest.raises(ValueError):
        _handmade(retire=False).select(6)


@pytest.mark.parametrize("dataset", ["yelp-lite", "twitter-sd-lite", "dblp-lite"])
@pytest.mark.parametrize("kind", ["reach", "ic", "lt"])
def test_sets_skip_unique_without_changing_the_first_mask(dataset, kind):
    """``retire=True`` marks every entry as its node's first in its set
    without ``np.unique``: on the sandwich's coverage sets (t = 20) and the
    IC and LT RR sets, that is the mask ``np.unique`` gives."""
    from repro.baselines.im import rr_sketches
    from repro.core.sandwich import favorable_users_np, reach_sets_np
    from repro.experiments.datasets import load

    g = load(dataset)
    if kind == "reach":
        nodes, offsets = reach_sets_np(g, 20, np.flatnonzero(~favorable_users_np(g, 0, 20, 1)))
        sk = SketchSet(g.n, nodes, offsets, np.zeros(len(offsets) - 1), retire=True)
    else:
        sk = rr_sketches(g, kind, 2000, seed=3)
    assert sk.retire and len(sk.offsets) > 1
    _, first = np.unique(sk._sketch * g.n + sk.nodes, return_index=True)
    want = np.zeros(len(sk.nodes), dtype=bool)
    want[first] = True
    np.testing.assert_array_equal(sk._first, want)
