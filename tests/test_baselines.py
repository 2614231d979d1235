"""Tests for the baseline seeders (§VIII-A): IC/LT RR sets, PR, RWR, DC, GED-T."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro.baselines.centrality import (
    degree_seeds,
    pagerank_np,
    pagerank_seeds,
    rwr_seeds,
)
from repro.baselines.im import generate_rr_sets, rr_sets, select_seeds_im
from repro.core.dm import ExactEvaluator, greedy_dm
from repro.experiments.tables import method_selector
import repro.graphs.graph as graph_mod
from repro.graphs.generators import random_instance, running_example
from repro.graphs.graph import OpinionGraph
from repro.opinion.walks import ACCEPT, COIN, SLOT, stream_keys, uniform_nodes, uniforms
from repro.oracle import assert_equivalent


def _rr(g, model, seed, count):
    """Driver-side RR sets 0..count-1: (sets as lists, roots)."""
    ids = np.arange(count)
    nodes, offsets = rr_sets(g.reverse_alias(), g.w, model, seed, ids)
    sets = [nodes[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
    return sets, uniform_nodes(stream_keys(seed, ids), g.n)


def _bfs_rr_set(g, seed, set_id, root):
    """Reference IC RR set: a plain reverse BFS from ``root`` that flips the
    coin of each in-edge slot it examines with the kernel's counter."""
    alias = g.reverse_alias()
    key = stream_keys(seed, np.array([set_id]))
    visited, frontier = {int(root)}, [int(root)]
    while frontier:
        nxt = []
        for v in frontier:
            for e in range(alias.indptr[v], alias.indptr[v + 1]):
                u = int(alias.indices[e])
                if uniforms(key, e, COIN)[0] < g.w[e] and u not in visited:
                    visited.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(visited)


def _orphan_sink_graph(n, seed):
    """A random graph whose first 5 nodes have no in-edges (a self-loop
    only, so an LT path ends there at once) and whose last 5 are sinks."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n - 5, 3 * n), rng.integers(5, n, 3 * n)
    return OpinionGraph.from_edges(
        n, src, dst, rng.random(3 * n) + 0.1, np.zeros((1, n)), np.zeros((1, n))
    )


def _lt_reference(g, seed, ids):
    """Reference LT RR sets as flat ``(nodes, offsets)``, built one path at
    a time: from the set's root, step i draws the in-neighbor of the path's
    i-th node with the walk's alias lanes, up to the first revisit."""
    alias = g.reverse_alias()
    paths = []
    for set_id in ids:
        key = stream_keys(seed, np.array([set_id]))
        path = [int(uniform_nodes(key, g.n)[0])]
        for step in range(g.n):
            u = uniforms(key, step, SLOT), uniforms(key, step, ACCEPT)
            v = int(alias.sample(np.array([path[-1]]), *u)[0])
            if v in path:
                break
            path.append(v)
        paths.append(sorted(path))
    nodes = np.array([v for path in paths for v in path], dtype=np.int32)
    return nodes, np.cumsum([0] + [len(path) for path in paths], dtype=np.int64)


class TestRRSets:
    def test_ic_root_always_included(self):
        g = random_instance(30, seed=0)
        sets, roots = _rr(g, "ic", 0, 300)
        for root, s in zip(roots, sets):
            assert root in s

    def test_ic_matches_reference_bfs(self):
        g = random_instance(40, seed=11, avg_deg=4.0)
        sets, roots = _rr(g, "ic", 6, 300)
        assert max(map(len, sets)) > 5  # the BFS goes past the root's neighbours
        for j, (root, s) in enumerate(zip(roots, sets)):
            assert s == _bfs_rr_set(g, 6, j, root)

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_rr_sets_do_not_depend_on_root_chunks(self, monkeypatch, model):
        """A budget of a few sets per chunk gives the same RR sets."""
        g = random_instance(40, seed=11, avg_deg=4.0)
        alias, ids = g.reverse_alias(), np.arange(300)
        whole = rr_sets(alias, g.w, model, 6, ids)
        monkeypatch.setattr(graph_mod, "_EXPAND_BUDGET", 3 * g.n)
        chunked = rr_sets(alias, g.w, model, 6, ids)
        for a, b in zip(whole, chunked):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_lt_is_a_path_of_distinct_nodes(self):
        """Each LT set holds the nodes of a reverse path of distinct nodes,
        ascending: from its root, step i draws the in-neighbor of the path's
        i-th node with the walk's alias lanes, up to the first revisit.  The
        flat arrays equal those built from the reference paths, dtypes
        included, on a graph with self-loop-only nodes and sinks too, and on
        id ranges of 1, 63 and 65 ids from nonzero ids."""
        graphs = [random_instance(30, seed=1), _orphan_sink_graph(30, seed=4)]
        id_ranges = [np.arange(300), np.array([5]), np.arange(7, 70), np.arange(1000, 1065)]
        for g, ids in itertools.product(graphs, id_ranges):
            nodes, offsets = rr_sets(g.reverse_alias(), g.w, "lt", 1, ids)
            ref_nodes, ref_offsets = _lt_reference(g, 1, ids)
            assert nodes.dtype == np.int32 and offsets.dtype == np.int64
            assert np.array_equal(nodes, ref_nodes) and np.array_equal(offsets, ref_offsets)
            if len(ids) == 300:
                assert np.diff(offsets).max() > 3

    def test_ic_respects_reverse_reachability(self):
        g = running_example()
        closure = {0: {0}, 1: {1}, 2: {0, 1, 2}, 3: {0, 1, 2, 3}}
        sets, roots = _rr(g, "ic", 2, 200)
        assert set(roots) == {0, 1, 2, 3}
        for root, s in zip(roots, sets):
            assert set(s) <= closure[root]  # node 0 has no real in-edges: {0}

    def test_unknown_model_raises(self):
        g = random_instance(10, seed=2)
        with pytest.raises(ValueError):
            rr_sets(g.reverse_alias(), g.w, "xx", 0, np.array([0]))

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_im_theta_below_one_raises(self, model):
        g = random_instance(10, seed=2)
        with pytest.raises(ValueError, match="budget"):
            select_seeds_im(None, g, model, 3, theta=0)

    @pytest.mark.usefixtures("spark")
    def test_spark_generation_counts(self):
        g = random_instance(40, seed=3)
        rr = generate_rr_sets(None, g, "ic", 200, seed=0)
        assert rr.count() == 200


class TestIMSeedSelection:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_selects_k_distinct(self, model):
        g = random_instance(40, seed=5)
        seeds = select_seeds_im(None, g, model, 3, theta=500, seed=1)
        assert len(seeds) == 3 and len(set(seeds)) == 3

    @pytest.mark.usefixtures("spark")
    def test_first_seed_max_coverage(self):
        g = random_instance(40, seed=6)
        theta = 400
        rr = generate_rr_sets(None, g, "ic", theta, seed=2).toPandas()
        counts = {}
        for nodes in rr["nodes"]:
            for v in set(nodes):
                counts[v] = counts.get(v, 0) + 1
        best_cov = max(counts.values())
        seeds = select_seeds_im(None, g, "ic", 1, theta=theta, seed=2)
        assert counts[seeds[0]] == best_cov


class TestCentrality:
    def test_degree_seeds_match_numpy(self):
        g = random_instance(50, seed=9)
        seeds = degree_seeds(None, g, 5)
        deg = np.zeros(g.n)
        real = g.src != g.dst
        np.add.at(deg, g.src[real], 1)
        # The top-5 returned must all have degree ≥ the 5th largest degree.
        kth = np.sort(deg)[-5]
        assert all(deg[s] >= kth for s in seeds)

    def test_degree_seeds_oracle(self):
        """DC ≡ SQL ``ORDER BY deg DESC, v LIMIT k`` over all nodes, so
        zero-degree nodes pad in id order (sparse graph, k = n)."""
        sparse = OpinionGraph.from_edges(
            5, np.array([3, 3, 1]), np.array([0, 4, 2]), np.ones(3),
            [[0.1, 0.2, 0.3, 0.4, 0.5]], [[0.5] * 5],
        )
        rand = random_instance(40, seed=10)
        for g, k in [(rand, 5), (rand, 40), (sparse, 3), (sparse, 5)]:
            sql = f"""
                SELECT pos, v FROM (
                    SELECT v, ROW_NUMBER() OVER (ORDER BY deg DESC, v) AS pos
                    FROM (
                        SELECT n.v AS v, COUNT(e.src) AS deg
                        FROM nodes n LEFT JOIN edges e
                          ON e.src = n.v AND e.src <> e.dst
                        GROUP BY n.v
                    )
                ) WHERE pos <= {k}
            """
            seeds = degree_seeds(None, g, k)
            assert_equivalent(
                pd.DataFrame({"pos": np.arange(1, len(seeds) + 1), "v": seeds}),
                sql,
                nodes=pd.DataFrame({"v": np.arange(g.n)}),
                edges=g.edges_pdf(),
            )

    def test_pagerank_np_is_distribution(self):
        g = random_instance(60, seed=11)
        pi = pagerank_np(g)
        assert pi.min() >= 0 and np.isclose(pi.sum(), 1.0, atol=1e-6)

    def test_pagerank_seeds_are_top(self):
        g = random_instance(40, seed=13)
        seeds = pagerank_seeds(g, 3)
        pi = pagerank_np(g)
        top = set(np.argsort(-pi)[:3].tolist())
        assert set(seeds) == top

    def test_rwr_restart_biases_ranking(self):
        g = random_instance(40, seed=14)
        a = rwr_seeds(None, g, 5, 0, iters=8)
        b = pagerank_seeds(g, 5)
        assert len(a) == 5  # may or may not differ from PR, but must be valid
        assert len(set(a)) == 5

    def test_degree_pads_when_graph_sparse(self):
        # 3 nodes, single real edge → requesting 3 seeds pads deterministically.
        from repro.graphs.graph import OpinionGraph

        g = OpinionGraph.from_edges(
            3, np.array([0]), np.array([1]), np.array([1.0]),
            [[0.1, 0.2, 0.3]], [[0.5, 0.5, 0.5]],
        )
        seeds = degree_seeds(None, g, 3)
        assert len(seeds) == 3 and len(set(seeds)) == 3


class TestGEDT:
    def test_matches_dm_cumulative_greedy(self):
        """Paper: GED-T ≡ DM for the cumulative score."""
        g = random_instance(30, seed=15)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        dm, _ = greedy_dm(ev, 3, celf=True)
        assert method_selector(g, "GED-T", 0, 3, "cumulative")(3) == dm

    @pytest.mark.parametrize(
        "dataset, nodes, t",
        [("random", 60, 3), ("yelp-lite", 300, 20), ("dblp-lite", 300, 20),
         ("twitter-sd-lite", 1600, 20)],
    )
    def test_celf_equals_scoring_every_candidate(self, dataset, nodes, t):
        """GED-T runs CELF.  Its seeds are those of the paper's GED-T, plain
        greedy scoring every candidate each round, and CELF's trace is plain
        greedy's, with ``==``: on the layered kernel and, above
        ``DENSE_N_THRESHOLD`` nodes, on reach-local."""
        from repro.experiments.datasets import load

        def make():
            if dataset == "random":
                return random_instance(nodes, r=3, seed=16, avg_deg=2.0)
            return load(dataset, nodes=nodes)

        k, score = 8, "plurality"  # GED-T ignores the score
        want = greedy_dm(ExactEvaluator(None, make(), 1, t, "cumulative"), k, celf=False)
        got = greedy_dm(ExactEvaluator(None, make(), 1, t, "cumulative"), k, celf=True)
        assert got == want
        assert method_selector(make(), "GED-T", 1, t, score)(k) == want[0]
