"""Tests for the baseline seeders (§VIII-A): IC/LT RR sets, PR, RWR, DC, GED-T."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.centrality import (
    degree_seeds,
    pagerank_np,
    pagerank_seeds,
    rwr_seeds,
)
from repro.baselines.ged_t import ged_t_seeds
from repro.baselines.im import (
    expected_influence_spread,
    generate_rr_sets,
    rr_sets,
    select_seeds_im,
)
from repro.core.dm import ExactEvaluator, greedy_dm
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

    def test_ic_sets_do_not_depend_on_root_chunks(self, monkeypatch):
        """A budget of a few sets per chunk gives the same IC sets."""
        g = random_instance(40, seed=11, avg_deg=4.0)
        alias, ids = g.reverse_alias(), np.arange(300)
        whole = rr_sets(alias, g.w, "ic", 6, ids)
        monkeypatch.setattr(graph_mod, "_EXPAND_BUDGET", 3 * g.m)
        chunked = rr_sets(alias, g.w, "ic", 6, ids)
        for a, b in zip(whole, chunked):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_lt_is_a_path_of_distinct_nodes(self):
        """Each LT set is a reverse path of distinct nodes that starts at
        its root (so the root is in its set), drawn with the walk's alias
        lanes; the draw after its last node is the first revisit."""
        g = random_instance(30, seed=1)
        alias = g.reverse_alias()
        sets, roots = _rr(g, "lt", 1, 300)
        for j, (root, s) in enumerate(zip(roots, sets)):
            assert s[0] == root and len(s) == len(set(s))
            key = stream_keys(1, np.array([j]))
            draws = [
                alias.sample(np.array([v]), uniforms(key, i, SLOT), uniforms(key, i, ACCEPT))[0]
                for i, v in enumerate(s)
            ]
            assert draws[:-1] == s[1:]
            assert draws[-1] in s

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

    def test_spark_generation_counts(self, spark):
        g = random_instance(40, seed=3)
        rr = generate_rr_sets(spark, g, "ic", 200, seed=0)
        assert rr.count() == 200


class TestIMSeedSelection:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_selects_k_distinct(self, spark, model):
        g = random_instance(40, seed=5)
        seeds = select_seeds_im(spark, g, model, 3, theta=500, seed=1)
        assert len(seeds) == 3 and len(set(seeds)) == 3

    def test_first_seed_max_coverage(self, spark):
        g = random_instance(40, seed=6)
        theta = 400
        rr = generate_rr_sets(spark, g, "ic", theta, seed=2).toPandas()
        counts = {}
        for nodes in rr["nodes"]:
            for v in set(nodes):
                counts[v] = counts.get(v, 0) + 1
        best_cov = max(counts.values())
        seeds = select_seeds_im(spark, g, "ic", 1, theta=theta, seed=2)
        assert counts[seeds[0]] == best_cov

    def test_eis_bounds(self, spark):
        g = random_instance(40, seed=7)
        eis = expected_influence_spread(spark, g, "ic", [0, 1, 2], theta=500)
        assert 0 <= eis <= g.n

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_eis_counts_rr_sets_hit(self, spark, model):
        """EIS = n/θ · #{RR sets containing a seed}, on the same RR sets."""
        g = random_instance(40, seed=10)
        theta, seed = 300, 4
        rr = generate_rr_sets(spark, g, model, theta, seed=seed).toPandas()
        for S in ([], [0], [3, 17, 25]):
            hit = sum(any(v in S for v in nodes) for nodes in rr["nodes"])
            eis = expected_influence_spread(spark, g, model, S, theta=theta, seed=seed)
            assert eis == g.n * hit / theta  # S = ∅ gives 0

    def test_eis_monotone_in_seeds(self, spark):
        g = random_instance(40, seed=8)
        e1 = expected_influence_spread(spark, g, "lt", [0], theta=800, seed=3)
        e2 = expected_influence_spread(spark, g, "lt", [0, 5, 9], theta=800, seed=3)
        assert e2 >= e1


class TestCentrality:
    def test_degree_seeds_match_numpy(self, spark):
        g = random_instance(50, seed=9)
        seeds = degree_seeds(spark, g, 5)
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

    def test_pagerank_seeds_are_top(self, spark):
        g = random_instance(40, seed=13)
        seeds = pagerank_seeds(spark, g, 3, iters=8)
        pi = pagerank_np(g, iters=8)
        top = set(np.argsort(-pi)[:3].tolist())
        assert set(seeds) == top

    def test_rwr_restart_biases_ranking(self, spark):
        g = random_instance(40, seed=14)
        a = rwr_seeds(spark, g, 5, 0, iters=8)
        b = pagerank_seeds(spark, g, 5, iters=8)
        assert len(a) == 5  # may or may not differ from PR, but must be valid
        assert len(set(a)) == 5

    def test_degree_pads_when_graph_sparse(self, spark):
        # 3 nodes, single real edge → requesting 3 seeds pads deterministically.
        from repro.graphs.graph import OpinionGraph

        g = OpinionGraph.from_edges(
            3, np.array([0]), np.array([1]), np.array([1.0]),
            [[0.1, 0.2, 0.3]], [[0.5, 0.5, 0.5]],
        )
        seeds = degree_seeds(spark, g, 3)
        assert len(seeds) == 3 and len(set(seeds)) == 3


class TestGEDT:
    def test_matches_dm_cumulative_greedy(self):
        """Paper: GED-T ≡ DM for the cumulative score."""
        g = random_instance(30, seed=15)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        dm, _ = greedy_dm(ev, 3, celf=True)
        assert ged_t_seeds(None, g, 0, 3, 3) == dm
