"""Tests for reverse random walks (§V): the driver kernel, unbiasedness
(Thms 8–9), truncation semantics, the walks' Spark DataFrame, and
truncation/estimation of the collected walks in the sketch engine.
Spark ≡ driver exactness is in ``test_generation.py``."""
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.im import generate_rr_sets
from repro.core.dm import others_at_horizon
from repro.core.rs import RSSelector
from repro.core.rw import RWSelector
from repro.core.sketch import SketchSet
from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np
from repro.opinion.walks import (
    WALK_COLUMNS,
    collect_sketches,
    map_id_range,
    reverse_walks,
    walk_kernel,
)
from tests.reference import truncated_estimate_np, walk_frame


def _walk_df(g, t, **budget):
    """The walks DataFrame ``(walk_id, path)`` of a ``walk_kernel`` budget."""
    kernel, count = walk_kernel(g, 0, t, **budget)
    return map_id_range(count, kernel, WALK_COLUMNS)


def _walk_sketches(walks, g, lam: int):
    """The walks DataFrame collected as RW units (λ walks per start)."""
    nodes, offsets = collect_sketches(walks)
    return SketchSet(g.n, nodes, offsets, g.b0[0, nodes[offsets[1:] - 1]], per_unit=lam)


def _walks(g, t, seed, *, lam=None, count=None, cand=0):
    """Driver-side walks: (paths as lists, starts, op) for ids 0..N-1."""
    ids = np.arange(g.n * lam if lam else count)
    nodes, offsets = reverse_walks(g.reverse_alias(), g.d[cand], seed, ids, t, lam=lam)
    paths = [nodes[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
    return paths, nodes[offsets[:-1]], g.b0[cand, nodes[offsets[1:] - 1]]


class TestKernel:
    def test_path_starts_at_start_node(self):
        g = running_example()
        paths, starts, _ = _walks(g, 3, 0, lam=2)
        assert [p[0] for p in paths] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert starts.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("t", [0, 1, 4])
    def test_path_length_bounded(self, t):
        g = random_instance(50, seed=1)
        paths, _, _ = _walks(g, t, 1, lam=1)
        assert all(1 <= len(p) <= t + 1 for p in paths)

    def test_fully_stubborn_walks_stop_immediately(self):
        g = random_instance(30, seed=2)
        g = replace(g, d=np.ones_like(g.d))
        paths, _, _ = _walks(g, 5, 2, lam=1)
        assert all(len(p) == 1 for p in paths)

    def test_non_stubborn_walks_run_full_length(self):
        g = random_instance(30, seed=3)
        g = replace(g, d=np.zeros_like(g.d))
        paths, _, _ = _walks(g, 5, 3, lam=1)
        assert all(len(p) == 6 for p in paths)

    def test_steps_follow_reverse_edges(self):
        g = running_example()
        in_nbrs = {0: {0}, 1: {1}, 2: {0, 1}, 3: {2}}
        paths, _, _ = _walks(g, 2, 4, lam=50)
        for p in paths:
            for a, b in zip(p, p[1:]):
                assert b in in_nbrs[a]

    def test_rs_starts_are_uniform_draws(self):
        g = random_instance(30, seed=4)
        _, starts, _ = _walks(g, 2, 5, count=30_000)
        assert starts.min() >= 0 and starts.max() < g.n
        freq = np.bincount(starts, minlength=g.n) / len(starts)
        assert np.abs(freq - 1 / g.n).max() < 0.005


def _unit_means(starts, vals, n):
    return np.bincount(starts, weights=vals, minlength=n) / np.bincount(starts, minlength=n)


class TestUnbiasedness:
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_direct_generation_unbiased(self, t):
        """Thm 8: E[X] = b^(t).  20k walks/node → Hoeffding bound at 6σ."""
        g = running_example()
        exact = fj_diffuse_np(g, t)[0]
        _, starts, op = _walks(g, t, 11, lam=20_000)
        est = _unit_means(starts, op, g.n)
        assert np.abs(est - exact).max() < 0.02

    def test_truncation_unbiased(self):
        """Thm 9: truncated estimate unbiased for b^(t)[S]."""
        g = running_example()
        S = {2}
        exact = fj_diffuse_np(g.with_seeds(0, list(S)), 2)[0]
        paths, starts, op = _walks(g, 2, 12, lam=20_000)
        op2 = [truncated_estimate_np(p, o, S) for p, o in zip(paths, op)]
        est = _unit_means(starts, op2, g.n)
        assert np.abs(est - exact).max() < 0.02

    def test_truncation_on_random_graph(self):
        g = random_instance(25, seed=5, avg_deg=3.0)
        S = {3, 8}
        t = 3
        exact = fj_diffuse_np(g.with_seeds(0, list(S)), t)[0]
        paths, starts, op = _walks(g, t, 13, lam=4000)
        op2 = [truncated_estimate_np(p, o, S) for p, o in zip(paths, op)]
        est = _unit_means(starts, op2, g.n)
        assert np.abs(est - exact).max() < 0.05

    def test_hoeffding_guarantee_holds_empirically(self):
        """Thm 10: λ = ⌈ln(2/(1 − ρ))/(2δ²)⌉ walks per node estimate each
        node's exact horizon opinion within δ w.p. ≥ ρ."""
        g = random_instance(20, seed=0, avg_deg=3.0)
        delta, rho, t, trials = 0.15, 0.8, 3, 40
        lam = math.ceil(math.log(2 / (1 - rho)) / (2 * delta**2))
        exact = fj_diffuse_np(g, t)[0]
        per_node = 0
        for s in range(trials):
            _, starts, op = _walks(g, t, 100 + s, lam=lam)
            per_node += (np.abs(_unit_means(starts, op, g.n) - exact) < delta).mean()
        # The guarantee is per node; 40 trials of 20 nodes leave 0.05 of slack.
        assert per_node / trials >= rho - 0.05


def _one_walk(path, op, seeds):
    """``op`` of a handmade one-walk sketch after truncating at ``seeds``."""
    sk = SketchSet(10, path, [0, len(path)], [op])
    for v in seeds:
        sk.truncate(v)
    return sk.op[0]


class TestTruncationSemantics:
    def test_no_seed_in_path_keeps_estimate(self):
        assert _one_walk([1, 2, 3], 0.4, {9}) == 0.4

    def test_seed_anywhere_gives_one(self):
        assert _one_walk([1, 2, 3], 0.4, {2}) == 1.0

    def test_start_node_as_seed(self):
        assert _one_walk([5, 1], 0.2, {5}) == 1.0


@pytest.mark.usefixtures("spark")
class TestSparkPipeline:
    def test_walk_frame_schema_and_count(self):
        g = random_instance(40, seed=6)
        w = _walk_df(g, 3, lam=5, seed=1)
        assert w.count() == 40 * 5
        assert set(w.columns) == {"walk_id", "path"}

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_generate_rr_sets_schema_and_count(self, model):
        """perfbench reads ``nodes`` as the walk frame's ``path``: both
        come from ``map_id_range``, which builds the schema from the names."""
        g = random_instance(40, seed=6)
        rr = generate_rr_sets(None, g, model, 30, seed=1)
        assert rr.count() == 30
        assert set(rr.columns) == {"sketch_id", "nodes"}
        assert rr.dtypes == [("sketch_id", "bigint"), ("nodes", "array<int>")]

    def test_walks_per_start(self):
        g = random_instance(30, seed=7)
        w = _walk_df(g, 2, lam=7, seed=2)
        starts = np.array([p[0] for p in w.toPandas()["path"]])
        counts = np.bincount(starts)
        assert (counts == 7).all() and len(counts) == 30

    def test_starts_mode(self):
        g = random_instance(30, seed=8)
        w = walk_frame(_walk_df(g, 2, theta=50, seed=3), g.b0[0])
        _, starts, _ = _walks(g, 2, 3, count=50)
        assert w["start"].tolist() == starts.tolist()

    def test_requires_exactly_one_mode(self):
        g = random_instance(10, seed=9)
        with pytest.raises(ValueError):
            walk_kernel(g, 0, 2, lam=3, theta=4)
        with pytest.raises(ValueError):
            walk_kernel(g, 0, 2)

    def test_op_is_b0_of_path_end(self):
        """Both selectors: a walk's op is b0[target] at its last node, and a
        rank score ranks each unit against the others at its first node."""
        g = random_instance(30, r=3, seed=10)
        target, t = 1, 3
        others = others_at_horizon(g, target, t)
        for sel, per_unit in (
            (RWSelector(None, g, target, t, "plurality", lam=3, seed=4), 3),
            (RSSelector(None, g, target, t, "plurality", theta=70, seed=4), 1),
        ):
            ref = walk_frame(sel.walks, g.b0[target])
            firsts = ref["start"].to_numpy()[::per_unit]
            assert np.array_equal(sel.sketches.op, ref["op"].to_numpy())
            assert np.array_equal(sel.sketches.others, others[:, firsts])

    def test_truncation_matches_reference(self):
        g = random_instance(30, seed=12)
        w = _walk_df(g, 4, lam=4, seed=6)
        sk = _walk_sketches(w, g, 4)
        sk.truncate(3)
        ref = walk_frame(w, g.b0[0])
        exp_op = [
            truncated_estimate_np(p, o, {3})
            for p, o in zip(ref["path"], ref["op"])
        ]
        assert np.allclose(sk.op, exp_op)
        for j, pr in enumerate(ref["path"]):
            pg = sk.nodes[sk.offsets[j] : sk.offsets[j] + sk.cut[j]].tolist()
            if 3 in list(pr):
                assert pg == list(pr)[: list(pr).index(3) + 1]
            else:
                assert pg == list(pr)

    def test_estimates_aggregation(self):
        g = random_instance(25, seed=13)
        w = _walk_df(g, 3, lam=6, seed=7)
        sk = _walk_sketches(w, g, 6)
        ref = (
            walk_frame(w, g.b0[0]).groupby("start")["op"].mean().sort_index().to_numpy()
        )
        assert np.allclose(sk.estimates(), ref)
        assert (np.bincount(sk.unit) == 6).all()
