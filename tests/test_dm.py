"""Tests for the exact (DM) evaluator and greedy/CELF (Alg. 1, §III-C)."""
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.dm import (
    ExactEvaluator,
    greedy_dm,
    others_at_horizon,
)
from repro.graphs.generators import random_instance, running_example
from repro.graphs.graph import OpinionGraph, reach
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np, unseeded_horizon_np
from repro.voting.scores import score_np, score_rows


def _exact_score(g, target, t, seeds, score, **kw):
    b = opinions_at_horizon_np(g, t, target, seeds)
    return score_np(b, target, score, **kw)


class TestBatchScores:
    @pytest.mark.parametrize("score", ["cumulative", "plurality", "copeland"])
    def test_matches_one_at_a_time(self, score):
        g = random_instance(40, r=3, seed=0)
        t, target, S = 3, 0, [5]
        cands = np.array([0, 7, 11, 20])
        vals = ExactEvaluator(None, g, target, t, score)(S, cands)
        for v, c in zip(vals, cands):
            assert np.isclose(v, _exact_score(g, target, t, S + [int(c)], score))

    def test_seed_column_pinned(self):
        g = random_instance(30, seed=1)
        cands = np.array([3, 9])
        # Internal invariant: the per-row seed has opinion exactly 1 — the
        # returned cumulative score must therefore be ≥ base + (1 − b_c).
        base = _exact_score(g, 0, 4, [], "cumulative")
        vals = ExactEvaluator(None, g, 0, 4, "cumulative")([], cands)
        assert (vals >= base - 1e-9).all()

    def test_user_mask_restricts_sum(self):
        g = random_instance(30, seed=2)
        mask = np.zeros(30, dtype=bool)
        mask[:10] = True
        ev = ExactEvaluator(None, g, 0, 3, "cumulative", user_mask=mask)
        vals = ev([], np.array([0]))
        b = opinions_at_horizon_np(g, 3, 0, [0])[0]
        assert np.isclose(vals[0], b[:10].sum())

    def test_existing_seeds_applied(self):
        g = random_instance(30, seed=3)
        v1 = ExactEvaluator(None, g, 0, 3, "cumulative")([2, 4], np.array([7]))[0]
        assert np.isclose(v1, _exact_score(g, 0, 3, [2, 4, 7], "cumulative"))


class TestOthersAtHorizon:
    def test_shape_and_values(self):
        g = random_instance(25, r=4, seed=4)
        o = others_at_horizon(g, 1, 3)
        full = fj_diffuse_np(g, 3)
        assert o.shape == (3, 25)
        assert np.allclose(o, full[[0, 2, 3]])


class TestEvaluator:
    def test_local_path_matches_reference(self):
        g = random_instance(35, seed=5)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        vals = ev([1], [0, 2, 3])
        for v, c in zip(vals, [0, 2, 3]):
            assert np.isclose(v, _exact_score(g, 0, 3, [1, int(c)], "cumulative"))

    def test_score_of_matches_reference(self):
        g = random_instance(30, r=3, seed=7)
        for score in ["cumulative", "plurality", "copeland"]:
            ev = ExactEvaluator(None, g, 0, 4, score)
            assert np.isclose(ev.score_of([3, 5]), _exact_score(g, 0, 4, [3, 5], score))

    def test_score_of_with_mask(self):
        g = random_instance(30, seed=8)
        mask = np.zeros(30, dtype=bool)
        mask[5:15] = True
        ev = ExactEvaluator(None, g, 0, 3, "cumulative", user_mask=mask)
        b = opinions_at_horizon_np(g, 3, 0, [2])[0]
        assert np.isclose(ev.score_of([2]), b[5:15].sum())

    @pytest.mark.parametrize(
        "score", ["plurality", "p_approval", "positional_p_approval", "copeland"]
    )
    def test_user_mask_with_rank_score_raises(self, score):
        """The mask is the cumulative LB's (Def. 3); a rank score rejects it
        when the evaluator is built, also under ``python -O``."""
        g = random_instance(40, r=3, seed=30)
        with pytest.raises(ValueError, match="user mask"):
            ExactEvaluator(None, g, 0, 3, score, user_mask=np.arange(40) % 3 == 0)


class TestGreedy:
    def test_celf_equals_plain_greedy_cumulative(self):
        g = random_instance(50, seed=9)
        ev = ExactEvaluator(None, g, 0, 4, "cumulative")
        s1, t1 = greedy_dm(ev, 4, celf=True)
        s2, t2 = greedy_dm(ev, 4, celf=False)
        assert s1 == s2 and np.allclose(t1, t2)

    def test_trace_is_exact_scores(self):
        g = random_instance(40, seed=10)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, trace = greedy_dm(ev, 3, celf=True)
        for i in range(3):
            assert np.isclose(trace[i], _exact_score(g, 0, 3, seeds[: i + 1], "cumulative"))

    def test_greedy_matches_bruteforce_first_pick(self):
        g = random_instance(25, seed=11)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, _ = greedy_dm(ev, 1)
        best = max(range(25), key=lambda v: _exact_score(g, 0, 3, [v], "cumulative"))
        assert seeds[0] == best

    def test_greedy_near_optimal_small_instance(self):
        """(1−1/e) guarantee on an exhaustively solvable instance."""
        g = random_instance(12, seed=12, avg_deg=2.0)
        t, k = 3, 2
        ev = ExactEvaluator(None, g, 0, t, "cumulative")
        seeds, trace = greedy_dm(ev, k)
        opt = max(
            _exact_score(g, 0, t, list(S), "cumulative")
            for S in itertools.combinations(range(12), k)
        )
        assert trace[-1] >= (1 - 1 / np.e) * opt - 1e-9

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_greedy_runs_for_rank_scores(self, score):
        g = random_instance(30, r=3, seed=13)
        ev = ExactEvaluator(None, g, 0, 3, score)
        seeds, trace = greedy_dm(ev, 2, celf=False)
        assert len(seeds) == 2 and len(set(seeds)) == 2
        assert trace == sorted(trace)  # scores non-decreasing in seeds

    @pytest.mark.parametrize("celf", [True, False])
    def test_k_above_pool_raises(self, celf):
        g = random_instance(6, seed=15)
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        seeds, _ = greedy_dm(ev, 6, celf=celf)
        assert sorted(seeds) == list(range(6))
        with pytest.raises(ValueError, match="k=7"):
            greedy_dm(ev, 7, celf=celf)

    def test_running_example_greedy_picks_node0_for_cumulative(self):
        # Table I: {1} (node 0) maximizes the cumulative score at t=1.
        g = running_example()
        ev = ExactEvaluator(None, g, 0, 1, "cumulative")
        seeds, _ = greedy_dm(ev, 1)
        assert seeds == [0]

    def test_running_example_greedy_picks_node2_for_plurality(self):
        # Table I: {3} (node 2) maximizes the plurality score at t=1.
        g = running_example()
        ev = ExactEvaluator(None, g, 0, 1, "plurality")
        seeds, _ = greedy_dm(ev, 1, celf=False)
        assert seeds == [2]


_OMEGA = np.array([1.0, 0.6, 0.25, 0.1])

# Kernel cases: (score, ExactEvaluator keywords) — all five scores, p = 2
# and ω for the approval variants, and the LB's user mask.
_KERNEL_CASES = {
    "cumulative": ("cumulative", {}),
    "cumulative_user_mask": ("cumulative", {"user_mask": np.arange(40) % 3 == 0}),
    "plurality": ("plurality", {}),
    "p_approval": ("p_approval", {"p": 2}),
    "positional_p_approval": ("positional_p_approval", {"p": 2, "omega": _OMEGA}),
    "copeland": ("copeland", {}),
}


def _looped_graph():
    """A 40-node instance with explicit self-loops (weight 0.5) on every 4th
    node, which carry δ from step to step, and its 3 top out-degree hubs."""
    g0 = random_instance(40, r=4, seed=30)
    loops = np.arange(0, g0.n, 4)
    g = OpinionGraph.from_edges(
        g0.n, np.r_[g0.src, loops], np.r_[g0.dst, loops],
        np.r_[g0.w, np.full(len(loops), 0.5)], g0.b0, g0.d,
    )
    out_deg = np.bincount(g.src[g.src != g.dst], minlength=g.n)
    return g, np.argsort(-out_deg, kind="stable")[:3].tolist()


def _run_graphs():
    """Graphs whose in-degree layers form 3, 6 and no runs."""
    n = 30
    ring = np.arange(n)
    cycle = random_instance(n, r=2, seed=35)
    return {
        "looped": _looped_graph()[0],
        "six_runs": random_instance(50, r=3, seed=2, avg_deg=8.0),
        "cycle": OpinionGraph.from_edges(
            n, ring, (ring + 1) % n, np.ones(n), cycle.b0, cycle.d
        ),
    }


def _kernels(ev, seeds, cands):
    """F from each of the two exact kernels, called directly."""
    return {
        "layered": ev._score(ev._layered(seeds, cands)),
        "reach_local": ev._reach_local(seeds, cands),
    }


def _diffused_f(g, target, t, seeds, cands, score, **kw):
    """F(S ∪ {v}) for each v in ``cands``: ``score_rows`` of the target's
    ``opinions_at_horizon_np`` row, one diffusion per candidate."""
    rows = [opinions_at_horizon_np(g, t, target, sorted(set(seeds) | {int(v)}))[0] for v in cands]
    others = np.delete(fj_diffuse_np(g, t), target, axis=0)
    return score_rows(np.reshape(rows, (len(cands), g.n)), others, score, **kw)


class TestKernelPaths:
    """The layered and reach-local kernels agree with one ``fj_diffuse_np``
    per candidate: layered bit for bit, reach-local up to rounding."""

    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    def test_sparse_path_matches_dense(self, case):
        score, kw = _KERNEL_CASES[case]
        g, hubs = _looped_graph()
        # Every candidate, so some are already in S; plus an empty batch.
        batches = [np.arange(g.n), np.array([], dtype=np.int64)]
        for t, seeds in itertools.product([0, 1, 3], [[], [2], hubs]):
            ev = ExactEvaluator(None, g, 0, t, score, **kw)
            for cands in batches:
                want = _diffused_f(g, 0, t, seeds, cands, score, **kw)
                got = _kernels(ev, seeds, cands)
                assert got["layered"].shape == got["reach_local"].shape == (len(cands),)
                np.testing.assert_array_equal(got["layered"], want)
                np.testing.assert_allclose(got["reach_local"], want, rtol=1e-12, atol=1e-12)
        # The hub seeds do cut paths that the reach-local kernel must skip.
        blocked = np.zeros(g.n, dtype=bool)
        blocked[hubs] = True
        indptr, dst, _ = g.forward_csr()
        cut = reach(indptr, dst, np.arange(g.n), 3, blocked=blocked)[0]
        assert len(cut) < len(reach(indptr, dst, np.arange(g.n), 3)[0])

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_sole_candidate_kernels_agree(self, score):
        """r = 1: no opponent, so every user ranks the target first and it
        wins no duel; both kernels say so."""
        g0 = random_instance(30, r=2, seed=33)
        g = OpinionGraph.from_edges(g0.n, g0.src, g0.dst, g0.w, g0.b0[:1], g0.d[:1])
        ev = ExactEvaluator(None, g, 0, 3, score)
        assert ev.others.shape == (0, g.n)
        want = np.full(g.n, g.n if score == "plurality" else 0.0)
        for name, got in _kernels(ev, [4], np.arange(g.n)).items():
            np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("score", ["cumulative", "plurality"])
    def test_evaluator_runs_reach_local_kernel_above_threshold(self, monkeypatch, score):
        """Above DENSE_N_THRESHOLD the evaluator dispatches to the reach-local
        kernel; the reference is the layered kernel, called directly."""
        import repro.core.dm as dm_mod

        g = random_instance(1600, r=3, seed=32, avg_deg=3.0)
        assert g.n > dm_mod.DENSE_N_THRESHOLD
        t, seeds = 4, [3, 10]
        ran = []
        ev = ExactEvaluator(None, g, 0, t, score)
        reach_local = ev._reach_local
        monkeypatch.setattr(ev, "_reach_local", lambda *a: ran.append(a) or reach_local(*a))
        cands = np.arange(0, g.n, 25)
        got = ev(seeds, cands)
        assert len(ran) == 1
        ref = ev._score(ev._layered(seeds, cands))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "dataset, kernel",
        [("yelp-lite", "_layered"), ("dblp-lite", "_layered"), ("twitter-sd-lite", "_reach_local")],
    )
    def test_dispatch_by_n_and_m(self, monkeypatch, dataset, kernel):
        """Reach-local above DENSE_N_THRESHOLD nodes, layered up to it, on
        sparse (yelp-lite, n²/m = 118) and dense (dblp-lite, 20) graphs
        alike.  The batch is at S ≠ ∅, where the kernel runs on the
        candidates."""
        from repro.experiments.datasets import load

        ev = ExactEvaluator(None, load(dataset), 0, 2, "cumulative")
        ran = []
        for name in ("_layered", "_reach_local"):
            fn = getattr(ev, name)
            monkeypatch.setattr(ev, name, lambda *a, fn=fn, name=name: ran.append(name) or fn(*a))
        ev([5], [0, 1])
        assert ran == [kernel]

    def test_positional_vectorization_matches_score_np(self):
        from repro.voting.scores import score_np as snp
        from repro.opinion.fj import opinions_at_horizon_np

        g = random_instance(30, r=4, seed=31)
        om = np.array([1.0, 0.7, 0.3, 0.0])
        cands = np.array([0, 4, 8])
        ev = ExactEvaluator(None, g, 0, 2, "positional_p_approval", p=3, omega=om)
        vals = ev([], cands)
        for v, c in zip(vals, cands):
            b = opinions_at_horizon_np(g, 2, 0, [int(c)])
            assert np.isclose(v, snp(b, 0, "positional_p_approval", p=3, omega=om))


class TestLayeredKernel:
    """Each ``_layered`` row is bit-identical to ``fj_diffuse_np`` with the
    candidate added to S: the same terms, added in the same order."""

    @pytest.mark.parametrize(
        "graph, t",
        [("looped", 0), ("looped", 1), ("looped", 3), ("dblp-lite", 20)],
        ids=["0", "1", "3", "dblp-lite-20"],
    )
    def test_rows_equal_fj_diffusion_bit_for_bit(self, graph, t):
        """The rows, and the F the evaluator returns for them, on the looped
        graph at S ∈ {∅, [2], hubs} and on dblp-lite (500 in-degree layers,
        the densest lite graph) at S ∈ {∅, [3]}, every 8th candidate."""
        if graph == "looped":
            g, hubs = _looped_graph()
            sets, check = ([], [2], hubs), np.arange(g.n)
        else:
            from repro.experiments.datasets import load

            g = load(graph)
            assert len(g.in_layers().ptr) - 1 == 500
            sets, check = ([], [3]), np.arange(0, g.n, 8)
        for seeds in sets:
            ev = ExactEvaluator(None, g, 0, t, "cumulative")
            rows = ev._layered(seeds, np.arange(g.n))  # some already in S
            assert rows.shape == (g.n, g.n)
            want = [opinions_at_horizon_np(g, t, 0, sorted(set(seeds) | {v}))[0] for v in check]
            np.testing.assert_array_equal(rows[check], want)
            np.testing.assert_array_equal(ev(seeds, check), ev._score(np.array(want)))
            assert ev._layered(seeds, np.array([], dtype=np.int64)).shape == (0, g.n)

    @pytest.mark.parametrize("width", [1, 2])
    def test_narrow_batches_equal_fj_diffusion_bit_for_bit(self, width):
        """Batches of one and two columns, on a graph with a node of
        in-degree 14 (so 14 layers, each cut once per call): every row is
        the whole batch's row and ``fj_diffuse_np``'s, at an odd and an even
        t (the two blocks swap roles every step)."""
        g, hubs = _looped_graph()
        assert np.bincount(g.dst).max() >= 9
        cands = np.random.default_rng(width).permutation(g.n)
        for t, seeds in itertools.product([3, 20], [[], hubs]):
            ev = ExactEvaluator(None, g, 0, t, "cumulative")
            whole = ev._layered(seeds, np.arange(g.n))
            for batch in cands[: g.n - g.n % width].reshape(-1, width):
                rows = ev._layered(seeds, batch)
                np.testing.assert_array_equal(rows, whole[batch])
                for v, row in zip(batch, rows):
                    want = opinions_at_horizon_np(g, t, 0, sorted(set(seeds) | {v}))[0]
                    np.testing.assert_array_equal(row, want)

    def test_layers_cover_every_edge_once_in_edge_order(self):
        g, _ = _looped_graph()
        lay = g.in_layers()
        assert lay.ptr[1] == g.n  # every node has an in-edge
        size = np.diff(lay.ptr)
        assert (np.diff(size) <= 0).all()  # each layer's rows: a shrinking prefix
        dst = np.concatenate([np.arange(c) for c in size])
        # Back in old labels and grouped by dst, the layers list the edges
        # in their dst-sorted order.
        order = np.lexsort((np.repeat(np.arange(len(size)), size), lay.order[dst]))
        np.testing.assert_array_equal(lay.order[lay.src[order]], g.src)
        np.testing.assert_array_equal(lay.w[order], g.w)

    @pytest.mark.parametrize("graph", ["looped", "six_runs", "cycle"])
    def test_runs_cover_every_layer_after_the_first_once_in_order(self, graph):
        """``_layer_runs`` groups layers 1, 2, … into consecutive runs of at
        most n edges, each as long as that allows: 3 runs on the looped
        graph, 6 on a denser one, none on a cycle (every in-degree 1, one
        layer).  The rows stay ``fj_diffuse_np``'s bit for bit."""
        import repro.core.dm as dm_mod

        g = _run_graphs()[graph]
        ptr = g.in_layers().ptr
        runs = dm_mod._layer_runs(ptr, g.n)
        assert len(runs) == {"looped": 3, "six_runs": 6, "cycle": 0}[graph]
        layers = [r for first, end in runs for r in range(first, end)]
        assert layers == list(range(1, len(ptr) - 1))
        assert all(first < end and ptr[end] - ptr[first] <= g.n for first, end in runs)
        # Greedy: a run stops where its next layer would not fit.
        assert all(ptr[end + 1] - ptr[first] > g.n for (first, end), _ in zip(runs, runs[1:]))
        for t, seeds in itertools.product([3, 20], [[], [2]]):
            ev = ExactEvaluator(None, g, 0, t, "cumulative")
            rows = ev._layered(seeds, np.arange(g.n))
            for v in range(g.n):
                want = opinions_at_horizon_np(g, t, 0, sorted(set(seeds) | {v}))[0]
                np.testing.assert_array_equal(rows[v], want)

    def test_a_run_takes_layers_up_to_exactly_n_edges(self):
        """n = 4, layers 1–4 of 2, 2, 1 and 4 edges: 2 + 2 fills a run, and a
        layer of n edges is a run of its own."""
        import repro.core.dm as dm_mod

        ptr = np.array([0, 4, 6, 8, 9, 13])
        assert dm_mod._layer_runs(ptr, 4) == [(1, 3), (3, 4), (4, 5)]

    @pytest.mark.parametrize("t", [3, 20])
    def test_column_chunks_on_threads_equal_one_chunk(self, monkeypatch, t):
        """With the column floor lowered to 8 and four CPUs reported, the
        40 candidates run as four chunks of 10 on the thread pool; the rows
        are the bytes of one chunk."""
        import repro.core.dm as dm_mod

        g, hubs = _looped_graph()
        ev = ExactEvaluator(None, g, 0, t, "cumulative")
        every = np.arange(g.n)
        one = {tuple(seeds): ev._layered(seeds, every) for seeds in ([], [2], hubs)}
        widths = []
        block = dm_mod._layered_block
        monkeypatch.setattr(
            dm_mod, "_layered_block", lambda *a: widths.append(len(a[3])) or block(*a)
        )
        monkeypatch.setattr(dm_mod, "_CHUNK_COLS", 8)
        monkeypatch.setattr(dm_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for seeds, want in one.items():
            widths.clear()
            got = ev._layered(list(seeds), every)
            assert widths == [10] * 4
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "case", ["plurality-greedy", "cumulative_lb-celf", "dblp-lite-cumulative-celf"]
    )
    def test_greedy_trace_is_exact_f(self, case):
        """On a small graph the greedy trace is F(prefix) itself, bit for
        bit: plain greedy on plurality and CELF on the sandwich's masked
        cumulative LB (a sparse random graph, t = 5), and CELF on the
        cumulative score on dblp-lite (t = 20)."""
        import repro.core.dm as dm_mod

        if case == "dblp-lite-cumulative-celf":
            from repro.experiments.datasets import TARGETS, load

            g = load("dblp-lite")
            ev, celf = ExactEvaluator(None, g, TARGETS["dblp-lite"], 20, "cumulative"), True
        elif case == "plurality-greedy":
            g = random_instance(150, r=3, seed=34, avg_deg=1.0)
            ev, celf = ExactEvaluator(None, g, 0, 5, "plurality"), False
        else:
            g = random_instance(150, r=3, seed=34, avg_deg=1.0)
            mask = fj_diffuse_np(g, 5).argmax(axis=0) == 0
            ev, celf = ExactEvaluator(None, g, 0, 5, "cumulative", user_mask=mask), True
        assert g.n <= dm_mod.DENSE_N_THRESHOLD
        seeds, trace = greedy_dm(ev, 6, celf=celf)
        assert trace == [ev.score_of(seeds[: i + 1]) for i in range(6)]


class _CallLog:
    """Stand-in for ``ExactEvaluator`` that logs each batch as
    (seeds, candidates); ``greedy_dm`` touches only ``graph``, ``__call__``
    and ``score_of``."""

    def __init__(self, ev):
        self.ev, self.graph, self.calls = ev, ev.graph, []

    def __call__(self, seeds, cand_seeds):
        self.calls.append((list(seeds), [int(c) for c in cand_seeds]))
        return self.ev(seeds, cand_seeds)

    def score_of(self, seeds):
        return self.ev.score_of(seeds)


class _BoundLog(_CallLog):
    """``_CallLog`` that also passes ``bound`` through, so plain greedy prunes."""

    def bound(self, seeds):
        return self.ev.bound(seeds)


def _exhaustive(ev, k):
    """Reference plain greedy: every round scores every unselected
    candidate and picks the largest gain over F(S), ties to the smaller id."""
    seeds, trace = [], []
    base = ev.score_of(seeds)
    while len(seeds) < k:
        cands = np.array([v for v in range(ev.graph.n) if v not in seeds])
        vals = ev(seeds, cands)
        top = int(np.argmax(vals - base))
        seeds.append(int(cands[top]))
        base = float(vals[top])
        trace.append(base)
    return seeds, trace


def _force_kernel(monkeypatch, kernel):
    """Make ``ExactEvaluator.__call__`` dispatch every batch to ``kernel``."""
    import repro.core.dm as dm_mod

    monkeypatch.setattr(dm_mod, "DENSE_N_THRESHOLD", 0 if kernel == "reach_local" else 10**9)


def _tied_hubs(lead=0):
    """``lead`` isolated nodes, then three identical components, hub h →
    two leaves: the hubs are interchangeable, and every opinion is a short
    dyadic fraction, so their scores tie exactly."""
    n, hubs = lead + 9, lead + np.arange(3)
    src, dst = np.repeat(hubs, 2), lead + np.arange(3, 9)
    b0 = np.array([[0.0] * lead + [0.25] * 3 + [0.0] * 6, [0.4] * n])
    return OpinionGraph.from_edges(n, src, dst, np.ones(6), b0, np.full((2, n), 0.5))


class TestLazyGreedy:
    """``greedy_dm``'s one loop: what each round sends to the evaluator."""

    def test_celf_first_round_makes_one_call(self):
        g = random_instance(40, seed=9)
        ev = _CallLog(ExactEvaluator(None, g, 0, 4, "cumulative"))
        greedy_dm(ev, 1, celf=True)
        assert ev.calls == [([], list(range(g.n)))]

    def test_plain_greedy_scores_every_unselected_then_at_most_two_batches(self):
        """A pruned round scores the top 32 by bound, then in one more batch
        what can still win; the picks and trace are exhaustive greedy's."""
        g = random_instance(80, r=3, seed=13)
        exact = ExactEvaluator(None, g, 0, 3, "plurality")
        ev = _BoundLog(exact)
        seeds, trace = greedy_dm(ev, 6, celf=False)
        assert (seeds, trace) == _exhaustive(exact, 6)
        assert ev.calls[0] == ([], list(range(g.n)))
        for i in range(1, 6):
            calls = [c for s, c in ev.calls if s == seeds[:i]]
            assert 1 <= len(calls) <= 2 and len(calls[0]) <= 32
            assert all(c == sorted(c) for c in calls)
        assert sum(len(c) for _, c in ev.calls[1:]) < 4 * (g.n - 3)

    def test_plain_greedy_without_bound_scores_every_unselected_each_round(self):
        """``greedy_dm(celf=False)`` on the cumulative score has no bound
        (``bound`` returns ``None``), as with an evaluator that has no
        ``bound`` at all, such as perfbench's timing proxy: every round
        scores every unselected candidate."""
        g = random_instance(40, r=3, seed=13)
        ev = _BoundLog(ExactEvaluator(None, g, 0, 3, "cumulative"))
        seeds, _ = greedy_dm(ev, 5, celf=False)
        assert ev.calls == [
            (seeds[:i], [v for v in range(g.n) if v not in seeds[:i]]) for i in range(5)
        ]

    @pytest.mark.parametrize("score, celf", [("cumulative", True), ("plurality", False)])
    def test_ties_go_to_the_smaller_id(self, score, celf):
        ev = ExactEvaluator(None, _tied_hubs(), 0, 2, score)
        first = ev([], [0, 1, 2])
        assert first[0] == first[1] == first[2]
        assert greedy_dm(ev, 3, celf=celf)[0] == [0, 1, 2]


class TestBatchIndependence:
    """A candidate's F is the same in any batch, bit for bit on both
    kernels, so the lazy loop may compare values scored in different
    batches."""

    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    def test_value_does_not_depend_on_the_batch(self, case):
        score, kw = _KERNEL_CASES[case]
        g, hubs = _looped_graph()
        subset = np.random.default_rng(0).permutation(g.n)[: g.n // 2]
        for seeds in ([], [2], hubs):
            ev = ExactEvaluator(None, g, 0, 3, score, **kw)
            whole = _kernels(ev, seeds, np.arange(g.n))
            batches = [subset] + [np.array([v]) for v in range(g.n)]
            for cands in batches:
                for name, got in _kernels(ev, seeds, cands).items():
                    np.testing.assert_array_equal(got, whole[name][cands], err_msg=name)

    def test_layered_rows_do_not_depend_on_the_cpus(self):
        """``_layered`` rows on yelp-lite (t = 20, every candidate, S ∈ {∅,
        [3]}) are the same bytes in a process pinned to one CPU, which runs
        one column chunk, and in an unpinned one, which splits the batch
        across its CPUs (on a one-CPU host both run one chunk)."""
        code = (
            "import hashlib, os, sys, numpy as np\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro.core.dm import ExactEvaluator\n"
            "from repro.experiments.datasets import load\n"
            "g = load('yelp-lite')\n"
            "ev = ExactEvaluator(None, g, 0, 20, 'cumulative')\n"
            "h = hashlib.sha256()\n"
            "for seeds in ([], [3]):\n"
            "    h.update(ev._layered(seeds, np.arange(g.n)).tobytes())\n"
            "print(len(os.sched_getaffinity(0)), h.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        (pinned, a), (free, b) = [
            subprocess.run(
                [sys.executable, "-c", code, mode], capture_output=True, check=True,
                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
            ).stdout.split()
            for mode in ("pinned", "free")
        ]
        assert pinned == "1" and int(free) == len(os.sched_getaffinity(0))
        assert a == b


_BOUND_SCORES = ["plurality", "p_approval", "positional_p_approval", "copeland"]


class TestBound:
    """``ExactEvaluator.bound`` and the pruned plain greedy it drives."""

    @pytest.mark.parametrize("kernel", ["layered", "reach_local"])
    @pytest.mark.parametrize("case", _BOUND_SCORES)
    def test_bound_is_at_least_f_for_every_superset(self, monkeypatch, kernel, case):
        """bound(S)[v] ≥ F(S ∪ {v}) for every v and every S ⊇ S₀, |S| ≤ 2,
        with F from a second evaluator on the same kernel, on its own copy
        of the graph."""
        score, kw = _KERNEL_CASES[case]
        _force_kernel(monkeypatch, kernel)
        below = 0
        for gseed, s0 in itertools.product([40, 41], [[], [3]]):
            g = random_instance(16, r=3, seed=gseed)
            ev = ExactEvaluator(None, g, 1, 3, score, **kw)
            ref = ExactEvaluator(None, random_instance(16, r=3, seed=gseed), 1, 3, score, **kw)
            rest = [v for v in range(g.n) if v not in s0]
            for size in range(3 - len(s0)):
                for extra in itertools.combinations(rest, size):
                    seeds = s0 + list(extra)
                    cands = [v for v in range(g.n) if v not in seeds]
                    ub, f = ev.bound(seeds)[cands], ref(seeds, cands)
                    assert np.isfinite(ub).all()
                    assert (ub >= f).all(), (seeds, ub - f)
                    below += int((ub < f.max()).sum())
        assert below  # the bound rules candidates out

    @pytest.mark.parametrize("kernel", ["layered", "reach_local"])
    @pytest.mark.parametrize("case", _BOUND_SCORES)
    def test_pruned_greedy_equals_exhaustive(self, monkeypatch, kernel, case):
        score, kw = _KERNEL_CASES[case]
        _force_kernel(monkeypatch, kernel)
        g = random_instance(70, r=3, seed=42, avg_deg=3.0)
        ev = ExactEvaluator(None, g, 1, 3, score, **kw)
        assert greedy_dm(ev, 5, celf=False) == _exhaustive(ev, 5)

    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_pruned_greedy_equals_exhaustive_on_exact_ties(self, score):
        ev = ExactEvaluator(None, _tied_hubs(), 0, 2, score)
        assert greedy_dm(ev, 4, celf=False) == _exhaustive(ev, 4)

    def test_second_batch_scores_a_bound_tie_with_a_smaller_id(self):
        """Round 2's first batch holds 31 decoys and hub 42 (a loose but valid
        bound ranks them first), so the best F is hub 42's.  Hub 41's bound
        ties it exactly, and 41 is the smaller id, so the second batch scores
        41, which ties and wins, as in exhaustive greedy."""
        loose = list(range(31)) + [42]

        class Loose(_BoundLog):
            def bound(self, seeds):
                ub = self.ev.bound(seeds)
                ub[loose] += 100.0
                return ub

        exact = ExactEvaluator(None, _tied_hubs(lead=40), 0, 2, "plurality")
        ev = Loose(exact)
        assert greedy_dm(ev, 2, celf=False) == _exhaustive(exact, 2) == ([40, 41], [3.0, 6.0])
        assert [c for _, c in ev.calls[1:]] == [loose, [41]]

    def test_a_vacuous_bound_costs_two_batches_a_round(self):
        """Where the bound rules nothing out (+inf), a round scores the 32
        smallest ids, then every other candidate in one more batch."""
        g = random_instance(80, r=3, seed=13)
        exact = ExactEvaluator(None, g, 0, 3, "plurality")

        class Vacuous(_CallLog):
            def bound(self, seeds):
                return np.full(g.n, np.inf)

        ev = Vacuous(exact)
        seeds, trace = greedy_dm(ev, 4, celf=False)
        assert (seeds, trace) == _exhaustive(exact, 4)
        for i in range(1, 4):
            rest = [v for v in range(g.n) if v not in seeds[:i]]
            assert [c for s, c in ev.calls if s == seeds[:i]] == [rest[:32], rest[32:]]

    def test_stand_in_without_bound_gives_the_same_seeds(self):
        g = random_instance(80, r=3, seed=13)
        ev = ExactEvaluator(None, g, 0, 3, "p_approval", p=2)
        log = _CallLog(ev)
        assert greedy_dm(log, 5, celf=False) == greedy_dm(ev, 5, celf=False)
        assert [len(c) for _, c in log.calls] == [g.n - i for i in range(5)]

    def test_bound_is_none_only_for_cumulative(self, monkeypatch):
        """On every kernel a rank score's bound is finite for every node and
        seed set, also on a graph with no kept batch yet (``bound`` makes it)."""
        for kernel in ("layered", "reach_local"):
            _force_kernel(monkeypatch, kernel)
            g = random_instance(40, r=3, seed=13)
            cum = ExactEvaluator(None, g, 0, 3, "cumulative")
            cum([], np.arange(g.n))
            assert cum.bound([]) is None and cum.bound([4]) is None
            ev = ExactEvaluator(None, random_instance(40, r=3, seed=13), 0, 3, "plurality")
            for seeds in ([4, 1], [], [1]):
                ub = ev.bound(seeds)
                assert ub.shape == (g.n,) and np.isfinite(ub).all()


def _row_batches(monkeypatch, kernels=("_layered",)):
    """Record the candidate count of every batch the layered kernel (or the
    given kernels: ``("_pairs",)`` for reach-local) runs."""
    sizes = []
    for name in kernels:
        kernel = getattr(ExactEvaluator, name)
        monkeypatch.setattr(
            ExactEvaluator, name,
            lambda self, seeds, cands, kernel=kernel: sizes.append(len(cands))
            or kernel(self, seeds, cands),
        )
    return sizes


def _bound_from_own_delta(ev, seeds):
    """``bound(seeds)`` from a Δ computed here: the kernel's all-candidate
    rows at S = ∅ minus b[∅] in place, then F at b[S] + slack + Δ per block."""
    import repro.core.dm as dm_mod

    delta = ev._layered([], np.arange(ev.graph.n))
    delta -= ev._horizon([])
    up = ev._horizon(seeds) + dm_mod._SLACK
    out = np.empty(ev.graph.n)
    for lo in range(0, ev.graph.n, dm_mod._BOUND_ROWS):
        hi = lo + dm_mod._BOUND_ROWS
        out[lo:hi] = ev._score(up + delta[lo:hi])
    return out


class TestSharedBatch:
    """Each graph keeps the all-candidate batch at S = ∅ for one target and
    t, and any evaluator on it reads that batch bit for bit."""

    @pytest.mark.parametrize("kernel", ["layered", "reach_local"])
    def test_hit_equals_a_fresh_graph(self, monkeypatch, kernel):
        """Every batch at ∅ (full, reversed, a permuted subset) reads the
        kept batch, and equals a fresh graph's and the kernel's own F for
        those candidates; a batch at S ≠ ∅ runs the kernel."""
        _force_kernel(monkeypatch, kernel)
        name = "_pairs" if kernel == "reach_local" else "_" + kernel
        sizes = _row_batches(monkeypatch, (name,))
        g, hubs = _looped_graph()
        ev = ExactEvaluator(None, g, 0, 3, "cumulative")
        every = np.arange(g.n)
        subset = np.random.default_rng(2).permutation(g.n)[:17]
        ev([], every)
        assert sizes == [g.n]
        direct = ev._reach_local if kernel == "reach_local" else (
            lambda s, c: ev._score(getattr(ev, name)(s, c))
        )
        for cands in (every, every[::-1], subset):
            ran = len(sizes)
            f = ev([], cands)
            assert len(sizes) == ran  # read from the kept batch
            fresh = ExactEvaluator(None, _looped_graph()[0], 0, 3, "cumulative")
            np.testing.assert_array_equal(f, fresh([], cands))
            np.testing.assert_array_equal(f, direct([], cands))
        rest = np.setdiff1d(every, hubs)
        ran = len(sizes)
        np.testing.assert_array_equal(ev(hubs, rest), direct(hubs, rest))
        assert sizes[ran:] == [len(rest)] * 2  # the call, then the reference
        ev([], subset)
        assert len(sizes) == ran + 2  # the batch at S ≠ ∅ replaced nothing

    @pytest.mark.parametrize("kernel", ["layered"])
    def test_hit_after_another_score_or_user_mask(self, monkeypatch, kernel):
        _force_kernel(monkeypatch, kernel)
        g, _ = _looped_graph()
        sizes = _row_batches(monkeypatch)
        ExactEvaluator(None, g, 0, 3, "plurality")([], np.arange(g.n))
        mask = np.arange(g.n) % 3 == 0
        cases = [("cumulative", {"user_mask": mask})] + list(_KERNEL_CASES.values())
        perm = np.random.default_rng(3).permutation(g.n)
        for score, kw in cases:
            got = ExactEvaluator(None, g, 0, 3, score, **kw)
            want = ExactEvaluator(None, _looped_graph()[0], 0, 3, score, **kw)
            for cands in (np.arange(g.n), perm[:9]):
                np.testing.assert_array_equal(got([], cands), want([], cands))
        assert sizes.count(g.n) == 1 + len(cases)  # the first batch, then the fresh graphs'

    @pytest.mark.parametrize("kernel", ["layered", "reach_local"])
    def test_cumulative_batch_runs_no_all_candidate_diffusion(self, monkeypatch, kernel):
        """A cumulative evaluator on a fresh graph makes its batch at S = ∅
        with no r-row B^(t)[∅]: every FJ diffusion it runs is the target's
        row.  Its F is the kernel's own, and its b[∅] is B^(t)[∅]'s row."""
        import repro.core.dm as dm_mod
        import repro.opinion.fj as fj_mod

        _force_kernel(monkeypatch, kernel)
        calls, diffuse = [], fj_mod.fj_diffuse_np
        for mod in (fj_mod, dm_mod):
            monkeypatch.setattr(
                mod, "fj_diffuse_np", lambda *a, **kw: calls.append(kw) or diffuse(*a, **kw)
            )
        g, every = _looped_graph()[0], np.arange(40)
        f = ExactEvaluator(None, g, 0, 3, "cumulative")([], every)
        assert "exact_batch" in g._kept and "unseeded" not in g._kept
        assert all(kw.get("cand") == 0 for kw in calls)
        ref = ExactEvaluator(None, _looped_graph()[0], 0, 3, "cumulative")
        if kernel == "reach_local":
            np.testing.assert_array_equal(f, ref._reach_local([], every))
        else:
            rows = [opinions_at_horizon_np(ref.graph, 3, 0, [v])[0] for v in every]
            np.testing.assert_array_equal(f, ref._score(np.array(rows)))
        base = g._kept["exact_batch"][1][0]
        np.testing.assert_array_equal(base, unseeded_horizon_np(g, 3)[0])

    def test_no_hit_on_another_target_t_s0_or_changed_opinions(self, monkeypatch):
        sizes = _row_batches(monkeypatch)
        sub = np.arange(5, 25)

        def changed_copy(graph, name):
            """The graph with entry (0, 7) of its ``name`` array set to 0.125."""
            a = getattr(graph, name).copy()
            a[0, 7] = 0.125
            return replace(graph, **{name: a})

        def check(target, t, seeds, changed=None):
            """Keep the batch (target 0, t = 3, S₀ = ∅), copy the graph and
            a reference with one entry of the ``changed`` array (b0 or d)
            set, then score ``sub`` on both."""
            g, ref = _looped_graph()[0], _looped_graph()[0]
            ExactEvaluator(None, g, 0, 3, "cumulative")([], np.arange(g.n))
            if changed:
                g, ref = changed_copy(g, changed), changed_copy(ref, changed)
            ran = len(sizes)
            got = ExactEvaluator(None, g, target, t, "cumulative")(seeds, sub)
            want = ExactEvaluator(None, ref, target, t, "cumulative")(seeds, sub)
            assert len(sizes) == ran + 2  # both ran the kernel
            np.testing.assert_array_equal(got, want)

        check(1, 3, [])
        check(0, 2, [])
        check(0, 3, [2])
        check(0, 3, [], "b0")
        check(0, 3, [], "d")

    @pytest.mark.parametrize("kernel", ["layered"])
    @pytest.mark.parametrize("score", ["plurality", "copeland"])
    def test_bound_and_pruned_greedy_unchanged(self, monkeypatch, kernel, score):
        """``bound`` reads Δ from the graph's batch at ∅ (kept by this
        evaluator, or by the cumulative LB's), bit for bit, and is ≥ F(S ∪ {v});
        the pruned greedy's seeds and trace equal exhaustive greedy's, on
        that graph and on a cold one."""
        _force_kernel(monkeypatch, kernel)
        for make in (_tied_hubs, lambda: random_instance(70, r=3, seed=42, avg_deg=3.0)):
            for lb_first in (False, True):
                g = make()
                if lb_first:
                    mask = np.arange(g.n) % 2 == 0
                    ExactEvaluator(None, g, 0, 2, "cumulative", user_mask=mask)([], np.arange(g.n))
                ev = ExactEvaluator(None, g, 0, 2, score)
                ref = ExactEvaluator(None, make(), 0, 2, score)
                for seeds in ([], [1], [5], [1, 6], [5, 1, 6]):
                    ub = ev.bound(seeds)
                    np.testing.assert_array_equal(ub, _bound_from_own_delta(ev, seeds))
                    cands = [v for v in range(g.n) if v not in seeds]
                    assert (ub[cands] >= ref(seeds, cands)).all()
                want = _exhaustive(ExactEvaluator(None, make(), 0, 2, score), 4)
                assert greedy_dm(ev, 4, celf=False) == want
                cold = ExactEvaluator(None, make(), 0, 2, score)
                assert greedy_dm(cold, 4, celf=False) == want
