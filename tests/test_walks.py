"""Tests for reverse random walks (§V): the driver kernel, unbiasedness
(Thms 8–9), truncation semantics, Spark generation, and
truncation/estimation of the collected walks in the sketch engine.
Spark ≡ driver exactness is in ``test_generation.py``."""
import numpy as np
import pytest

from repro.core.sketch import SketchSet, collect_sketches
from repro.graphs.generators import random_instance, running_example
from repro.opinion.fj import fj_diffuse_np
from repro.opinion.walks import generate_walks, reverse_walks
from tests.reference import truncated_estimate_np


def _walk_sketches(walks, n: int, lam: int):
    """The walks DataFrame collected as RW units (λ walks per start)."""
    table, nodes, offsets = collect_sketches(walks, "walk_id", "path")
    return SketchSet(
        n,
        nodes,
        offsets,
        table.column("op").to_numpy(),
        unit=table.column("start").to_numpy(),
        per_unit=lam,
    )


def _walks(g, t, seed, *, lam=None, count=None, cand=0):
    """Driver-side walks: (paths as lists, starts, op) for ids 0..N-1."""
    ids = np.arange(g.n * lam if lam else count)
    nodes, offsets, ends = reverse_walks(g.reverse_alias(), g.d[cand], seed, ids, t, lam=lam)
    paths = [nodes[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
    return paths, nodes[offsets[:-1]], g.b0[cand, ends]


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
        g.d[:] = 1.0
        paths, _, _ = _walks(g, 5, 2, lam=1)
        assert all(len(p) == 1 for p in paths)

    def test_non_stubborn_walks_run_full_length(self):
        g = random_instance(30, seed=3)
        g.d[:] = 0.0
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


class TestTruncationSemantics:
    def test_no_seed_in_path_keeps_estimate(self):
        assert truncated_estimate_np([1, 2, 3], 0.4, {9}) == 0.4

    def test_seed_anywhere_gives_one(self):
        assert truncated_estimate_np([1, 2, 3], 0.4, {2}) == 1.0

    def test_start_node_as_seed(self):
        assert truncated_estimate_np([5, 1], 0.2, {5}) == 1.0


class TestSparkPipeline:
    def test_generate_walks_schema_and_count(self, spark):
        g = random_instance(40, seed=6)
        w = generate_walks(spark, g, 0, 3, lam=5, seed=1)
        assert w.count() == 40 * 5
        assert set(w.columns) == {"walk_id", "start", "path", "op"}

    def test_walks_per_start(self, spark):
        g = random_instance(30, seed=7)
        w = generate_walks(spark, g, 0, 2, lam=7, seed=2)
        counts = w.groupBy("start").count().toPandas()
        assert (counts["count"] == 7).all() and len(counts) == 30

    def test_starts_mode(self, spark):
        g = random_instance(30, seed=8)
        w = generate_walks(spark, g, 0, 2, theta=50, seed=3).toPandas()
        _, starts, _ = _walks(g, 2, 3, count=50)
        assert w.sort_values("walk_id")["start"].tolist() == starts.tolist()

    def test_requires_exactly_one_mode(self, spark):
        g = random_instance(10, seed=9)
        with pytest.raises(ValueError):
            generate_walks(spark, g, 0, 2, lam=3, theta=4)
        with pytest.raises(ValueError):
            generate_walks(spark, g, 0, 2)

    def test_op_is_b0_of_path_end(self, spark):
        g = random_instance(30, seed=10)
        pdf = generate_walks(spark, g, 0, 3, lam=3, seed=4).toPandas()
        ends = pdf["path"].map(lambda p: p[-1]).to_numpy()
        assert np.allclose(pdf["op"].to_numpy(), g.b0[0, ends])

    def test_truncation_matches_reference(self, spark):
        g = random_instance(30, seed=12)
        w = generate_walks(spark, g, 0, 4, lam=4, seed=6)
        sk = _walk_sketches(w, g.n, 4)
        sk.truncate(3)
        ref = w.toPandas().sort_values("walk_id")
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

    def test_estimates_aggregation(self, spark):
        g = random_instance(25, seed=13)
        w = generate_walks(spark, g, 0, 3, lam=6, seed=7)
        sk = _walk_sketches(w, g.n, 6)
        ref = (
            w.toPandas().groupby("start")["op"].mean().sort_index().to_numpy()
        )
        assert np.allclose(sk.estimates(), ref)
        assert (np.bincount(sk.unit) == 6).all()
