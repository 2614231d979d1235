"""Unit tests for the OpinionGraph substrate (repro.graphs.graph)."""
import numpy as np
import pytest

from repro.graphs.generators import random_instance, running_example
import repro.graphs.graph as graph_mod
from repro.graphs.graph import OpinionGraph, _build_alias_row, reach, spmv_dst


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
