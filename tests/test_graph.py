"""Unit tests for the OpinionGraph substrate (repro.graphs.graph)."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dm import ExactEvaluator
from repro.graphs.generators import random_instance, running_example
import repro.graphs.graph as graph_mod
from repro.graphs.graph import OpinionGraph, _build_alias_row, reach, spmv_dst
from repro.opinion.fj import unseeded_horizon_np


def _tiny(b0=None, d=None):
    src = [0, 1, 2]
    dst = [2, 2, 3]
    w = [2.0, 2.0, 5.0]
    b0 = b0 if b0 is not None else [[0.1, 0.2, 0.3, 0.4]]
    d = d if d is not None else [[0.0, 0.0, 0.5, 1.0]]
    return OpinionGraph.from_edges(4, np.array(src), np.array(dst), np.array(w), b0, d)


class TestConstruction:
    def test_column_stochastic_after_normalization(self):
        g = _tiny()
        g.validate()

    def test_in_degree_zero_nodes_get_self_loops(self):
        g = _tiny()
        loops = set(zip(g.src[g.src == g.dst].tolist(), g.dst[g.src == g.dst].tolist()))
        assert (0, 0) in loops and (1, 1) in loops

    def test_raw_weights_rescaled_per_destination(self):
        g = _tiny()
        mask = g.dst == 2
        assert np.allclose(np.sort(g.w[mask]), [0.5, 0.5])

    def test_zero_weight_edges_dropped(self):
        g = OpinionGraph.from_edges(
            3, np.array([0, 1]), np.array([2, 2]), np.array([1.0, 0.0]),
            [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
        )
        assert not ((g.src == 1) & (g.dst == 2)).any()

    def test_edges_sorted_by_dst(self):
        g = random_instance(50, seed=3)
        assert (np.diff(g.dst) >= 0).all()

    def test_validate_rejects_unsorted_edges(self):
        """The reverse CSR (dst_indptr, src, w) needs dst-sorted edges."""
        g = random_instance(30, seed=4)
        rev = slice(None, None, -1)
        bad = OpinionGraph(g.n, g.src[rev], g.dst[rev], g.w[rev], g.b0, g.d)
        with pytest.raises(AssertionError, match="sorted by dst"):
            bad.validate()

    @pytest.mark.parametrize("bad_b0", [[[1.5, 0, 0, 0]], [[-0.1, 0, 0, 0]]])
    def test_rejects_out_of_range_opinions(self, bad_b0):
        with pytest.raises(ValueError):
            _tiny(b0=bad_b0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            OpinionGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([-1.0]),
                [[0.0, 0.0]], [[0.0, 0.0]],
            )

    @pytest.mark.parametrize("field", ["b0", "d"])
    def test_rejects_nan_opinions_and_stubbornness(self, field):
        """NaN passes a ``< 0 or > 1`` test and FJ would carry it forward."""
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _tiny(**{field: [[0.1, np.nan, 0.3, 0.4]]})

    def test_rejects_nan_weight(self):
        """A NaN weight is not silently dropped as if it were zero."""
        with pytest.raises(ValueError, match="finite"):
            OpinionGraph.from_edges(
                3, np.array([0, 1]), np.array([2, 2]), np.array([1.0, np.nan]),
                [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
            )

    def test_rejects_infinite_weight(self):
        """An infinite weight would normalize to inf / inf = NaN in W."""
        with pytest.raises(ValueError, match="finite"):
            OpinionGraph.from_edges(
                3, np.array([0, 1]), np.array([2, 2]), np.array([1.0, np.inf]),
                [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
            )

    def test_rejects_out_of_range_node_ids(self):
        with pytest.raises(ValueError):
            OpinionGraph.from_edges(
                2, np.array([0]), np.array([5]), np.array([1.0]),
                [[0.0, 0.0]], [[0.0, 0.0]],
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            OpinionGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([1.0]),
                [[0.0, 0.0]], [[0.0, 0.0, 0.0]],
            )

    def test_candidate_names_default_and_custom(self):
        g = _tiny()
        assert g.candidates == ["c1"]
        e = running_example()
        assert e.candidates == ["c1", "c2"]

    @pytest.mark.parametrize("n,seed", [(20, 0), (57, 1), (123, 2), (200, 3)])
    def test_random_instances_validate(self, n, seed):
        random_instance(n, seed=seed).validate()


class TestSeeds:
    def test_with_seeds_sets_opinion_and_stubbornness(self):
        g = running_example()
        g2 = g.with_seeds(0, [2])
        assert g2.b0[0, 2] == 1.0 and g2.d[0, 2] == 1.0

    def test_with_seeds_does_not_touch_other_candidate(self):
        g = running_example()
        g2 = g.with_seeds(0, [2])
        assert np.array_equal(g2.b0[1], g.b0[1])
        assert np.array_equal(g2.d[1], g.d[1])

    def test_with_seeds_is_pure(self):
        g = running_example()
        b0_before = g.b0.copy()
        g.with_seeds(0, [0, 1, 2])
        assert np.array_equal(g.b0, b0_before)

    def test_empty_seed_set_is_identity(self):
        g = running_example()
        g2 = g.with_seeds(0, [])
        assert np.array_equal(g2.b0, g.b0) and np.array_equal(g2.d, g.d)


class TestReadOnly:
    """An instance is fixed (§II): its arrays are read-only, a caller's
    arrays are copied, not frozen, and a result kept on a graph is never
    carried over to another instance."""

    def test_arrays_are_read_only_and_callers_stay_writable(self):
        src, dst, w = np.array([0, 1, 2], dtype=np.int32), np.array([2, 2, 3]), np.ones(3)
        b0, d = np.full((2, 4), 0.5), np.full((2, 4), 0.25)
        g = OpinionGraph.from_edges(4, src, dst, w, b0, d)
        for graph in (g, g.with_seeds(0, [1])):
            for name in ("src", "dst", "w", "b0", "d"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(graph, name)[0] = 0
        for a in (src, dst, w, b0, d):
            a[0] = 1
        assert g.b0[0, 0] == 0.5 and g.d[0, 0] == 0.25

    def test_kept_holds_one_result_per_kind(self):
        """The same key returns the kept object without calling ``make``;
        another key drops the old result before ``make`` runs."""
        g, made = random_instance(10, seed=1), []

        def make(value):
            def run():
                assert "k" not in g._kept  # the old result is already gone
                made.append(value)
                return [value]

            return run

        first = g.kept("k", 1, make("a"))
        assert first == ["a"] and g.kept("k", 1, make("b")) is first and made == ["a"]
        second = g.kept("k", 2, make("c"))
        assert second == ["c"] and made == ["a", "c"]
        assert g.kept("other", 1, lambda: "x") == "x" and g.kept("k", 2, make("d")) is second
        assert made == ["a", "c"]

    def test_with_seeds_starts_with_nothing_kept(self):
        g = random_instance(40, r=3, seed=7)
        unseeded_horizon_np(g, 3)
        for warm in (g.in_layers, g.reverse_alias, g.forward_csr):
            warm()
        ExactEvaluator(None, g, 0, 3, "plurality")([], np.arange(40))
        assert set(g._kept) == {
            "unseeded", "in_layers", "reverse_alias", "forward_csr", "exact_batch"
        }
        assert g.with_seeds(0, [1])._kept == {} and g.with_seeds(1, [])._kept == {}

    def test_replace_carries_no_kept_result(self):
        """Warm B^(t)[∅], ``in_layers`` and an evaluator's batch, then swap d:
        the new graph's B^(t)[∅] and exact F are a cold graph's."""
        g, t, every = random_instance(40, r=3, seed=7), 3, np.arange(40)
        unseeded_horizon_np(g, t)
        g.in_layers()
        ExactEvaluator(None, g, 0, t, "plurality")([], every)
        d = np.full_like(g.d, 0.3)
        new, cold = replace(g, d=d), replace(random_instance(40, r=3, seed=7), d=d)
        np.testing.assert_array_equal(unseeded_horizon_np(new, t), unseeded_horizon_np(cold, t))
        for score in ("cumulative", "plurality"):
            np.testing.assert_array_equal(
                ExactEvaluator(None, new, 0, t, score)([], every),
                ExactEvaluator(None, cold, 0, t, score)([], every),
            )


class TestSpmv:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_matvec(self, seed):
        g = random_instance(40, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.random(g.n)
        W = np.zeros((g.n, g.n))
        W[g.src, g.dst] += g.w
        assert np.allclose(spmv_dst(g, x), x @ W)

    def test_matrix_batch_matches_per_row(self):
        g = random_instance(30, seed=9)
        rng = np.random.default_rng(0)
        X = rng.random((4, g.n))
        batched = spmv_dst(g, X)
        for i in range(4):
            assert np.allclose(batched[i], spmv_dst(g, X[i]))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_bit_identical_to_add_at(self, shape):
        """The bincount form sums in edge order, exactly as np.add.at does."""
        g = random_instance(60, seed=5)
        X = np.random.default_rng(1).random(shape + (g.n,))
        ref = np.zeros(shape + (g.n,))
        np.add.at(ref.reshape(-1, g.n).T, g.dst, (X[..., g.src] * g.w).reshape(-1, g.m).T)
        assert np.array_equal(spmv_dst(g, X), ref)

    def test_stochasticity_preserves_ones(self):
        g = random_instance(25, seed=4)
        assert np.allclose(spmv_dst(g, np.ones(g.n)), 1.0)


class TestAlias:
    @pytest.mark.parametrize("probs", [[1.0], [0.5, 0.5], [0.9, 0.1], [0.2, 0.3, 0.5]])
    def test_alias_row_distribution(self, probs):
        p = np.array(probs)
        prob, alias = _build_alias_row(p)
        rng = np.random.default_rng(1)
        n = 200_000
        slot = (rng.random(n) * len(p)).astype(int)
        accept = rng.random(n) < prob[slot]
        draws = np.where(accept, slot, alias[slot])
        freq = np.bincount(draws, minlength=len(p)) / n
        assert np.allclose(freq, p, atol=0.01)

    def test_reverse_alias_sampling_matches_weights(self):
        g = running_example()
        at = g.reverse_alias()
        rng = np.random.default_rng(2)
        u_slot, u_accept = rng.random((2, 100_000))
        draws = at.sample(np.full(100_000, 2), u_slot, u_accept)  # node 2 has in {0,1}
        freq = np.bincount(draws, minlength=4) / 100_000
        assert np.allclose(freq[[0, 1]], [0.5, 0.5], atol=0.01)

    def test_alias_cached(self):
        g = running_example()
        assert g.reverse_alias() is g.reverse_alias()


def _bfs_reach(g, v, t, blocked):
    """Reference N_v^(t): per-node BFS over the edges, never entering ``blocked``."""
    seen, frontier = {v}, {v}
    for _ in range(t):
        frontier = {
            int(x) for u in frontier for x in g.dst[g.src == u]
            if int(x) not in seen and not blocked[x]
        }
        seen |= frontier
    mask = np.zeros(g.n, dtype=bool)
    mask[list(seen)] = True
    return mask


def _masks(nodes, offsets, n):
    """(roots, n) bool masks of the flat sets, checking each set is sorted."""
    out = np.zeros((len(offsets) - 1, n), dtype=bool)
    for j, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        assert (np.diff(nodes[a:b]) > 0).all()
        out[j, nodes[a:b]] = True
    return out


def _forward_reach(g, roots, t, blocked=None):
    indptr, dst, _ = g.forward_csr()
    return _masks(*reach(indptr, dst, roots, t, blocked=blocked), g.n)


class TestForwardReach:
    @pytest.mark.parametrize("t", [0, 1, 3, 20])
    @pytest.mark.parametrize("cut", [False, True])
    def test_matches_bfs_reference(self, monkeypatch, t, cut):
        g = random_instance(50, seed=6, avg_deg=2.5)
        blocked = np.zeros(g.n, dtype=bool)
        if cut:
            blocked[[1, 4, 9, 16]] = True
        roots = np.arange(g.n)
        exp = np.array([_bfs_reach(g, v, t, blocked) for v in roots])
        assert np.array_equal(_forward_reach(g, roots, t, blocked if cut else None), exp)
        # Root chunks of a few rows each give the same sets.
        monkeypatch.setattr(graph_mod, "_EXPAND_BUDGET", 3 * g.m)
        assert np.array_equal(_forward_reach(g, roots, t, blocked if cut else None), exp)

    def test_blocked_root_keeps_itself(self):
        g = running_example()
        blocked = np.ones(g.n, dtype=bool)
        assert _forward_reach(g, np.array([0, 2]), 2, blocked).tolist() == [
            [True, False, False, False],
            [False, False, True, False],
        ]

    @pytest.mark.parametrize("t", [0, 1, 3, 20])
    @pytest.mark.parametrize("budget", [None, 3])
    def test_reverse_csr_is_transposed_forward(self, monkeypatch, t, budget):
        """Over ``(dst_indptr, src)``, root u's set is {v : u ∈ N_v^(t)}."""
        g = random_instance(60, seed=8, avg_deg=3.0)
        roots = np.arange(g.n)
        if budget:
            monkeypatch.setattr(graph_mod, "_EXPAND_BUDGET", budget * g.m)
        nodes, offsets = reach(g.dst_indptr(), g.src, roots, t)
        assert nodes.dtype == np.int32 and offsets.dtype == np.int64
        assert np.array_equal(_masks(nodes, offsets, g.n), _forward_reach(g, roots, t).T)


def _sink_graph(n, seed):
    """A random graph whose upper half has no out-edges (sinks), with
    explicit self-loops on every 5th node besides the orphans' ones."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n // 2, 3 * n)
    dst = rng.integers(0, n, 3 * n)
    loops = np.arange(0, n, 5)
    return OpinionGraph.from_edges(
        n, np.r_[src, loops], np.r_[dst, loops], np.ones(3 * n + len(loops)),
        np.zeros((1, n)), np.zeros((1, n)),
    )


class TestBitParallelReach:
    """Without ``live``, graphs up to ``DENSE_N_THRESHOLD`` nodes expand one
    bit per root; larger ones run the frontier BFS.  Both give the same
    bytes."""

    @staticmethod
    def _both(monkeypatch, *args, **kw):
        """``reach`` forced onto the frontier BFS, then onto the bits."""
        out = []
        for threshold in (-1, 10**9):
            monkeypatch.setattr(graph_mod, "DENSE_N_THRESHOLD", threshold)
            out.append(reach(*args, **kw))
        return out

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("hops", [0, 1, 3, 20])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_bits_equal_frontier_bytes(self, monkeypatch, direction, hops, budget):
        """Random graphs with sinks and self-loops; root lists empty, of
        1, 63, 65 and 130 roots (repeats included) and every node; with and
        without blocked nodes, one of them a root.  ``budget`` = 1 cuts the
        roots into 64-root chunks."""
        if budget:
            monkeypatch.setattr(graph_mod, "_EXPAND_BUDGET", budget)
        rng = np.random.default_rng(hops)
        for g in (random_instance(90, seed=11, avg_deg=1.5), _sink_graph(70, seed=12)):
            indptr, nbr, _ = g.forward_csr()
            if direction == "reverse":
                indptr, nbr = g.dst_indptr(), g.src
            blocked = np.zeros(g.n, dtype=bool)
            blocked[rng.choice(g.n, 6, replace=False)] = True
            root_lists = [np.zeros(0, dtype=np.int64), np.arange(g.n)] + [
                rng.integers(0, g.n, size) for size in (1, 63, 65, 130)
            ]
            root_lists[-1][0] = np.flatnonzero(blocked)[0]
            for roots, cut in itertools.product(root_lists, (None, blocked)):
                (fn, fo), (bn, bo) = self._both(monkeypatch, indptr, nbr, roots, hops, blocked=cut)
                assert bn.dtype == fn.dtype == np.int32 and bo.dtype == fo.dtype == np.int64
                assert len(bo) == len(roots) + 1
                assert bn.tobytes() == fn.tobytes() and bo.tobytes() == fo.tobytes()

    def test_split_by_size_and_live(self, monkeypatch):
        """The bits run without ``live`` up to ``DENSE_N_THRESHOLD`` nodes."""
        calls = []
        bits = graph_mod._reach_bits
        monkeypatch.setattr(graph_mod, "_reach_bits", lambda *a: calls.append(a) or bits(*a))
        g = random_instance(50, seed=6, avg_deg=2.5)
        indptr, dst, _ = g.forward_csr()
        reach(indptr, dst, np.arange(5), 3)
        reach(indptr, dst, np.arange(5), 3, live=lambda j, e: np.ones(len(e), dtype=bool))
        monkeypatch.setattr(graph_mod, "DENSE_N_THRESHOLD", g.n - 1)
        reach(indptr, dst, np.arange(5), 3)
        assert len(calls) == 1


class TestAdjacencyAndExport:
    def test_forward_csr_keeps_self_loops(self):
        g = running_example()
        indptr, dst, w = g.forward_csr()
        assert indptr[-1] == g.m == 5  # 3 real edges + 2 orphan self-loops
        src = np.repeat(np.arange(g.n), np.diff(indptr))
        assert sorted(zip(src, dst, w)) == sorted(zip(g.src, g.dst, g.w))

    def test_forward_csr_neighbors(self):
        g = running_example()
        indptr, dst, _ = g.forward_csr()
        assert list(dst[indptr[0] : indptr[1]]) == [0, 2]
        assert list(dst[indptr[2] : indptr[3]]) == [3]
        assert g.forward_csr() is g.forward_csr()

    def test_edges_pdf_roundtrip(self):
        g = running_example()
        pdf = g.edges_pdf()
        assert len(pdf) == g.m and set(pdf.columns) == {"src", "dst", "w"}

    def test_state_pdf_has_all_candidates(self):
        g = running_example()
        pdf = g.state_pdf()
        assert len(pdf) == g.n * g.r
        assert set(pdf["cand"].unique()) == {0, 1}

    def test_state_pdf_single_candidate(self):
        g = running_example()
        pdf = g.state_pdf(cand=1)
        assert (pdf["cand"] == 1).all() and len(pdf) == g.n
