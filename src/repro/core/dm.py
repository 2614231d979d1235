"""Exact greedy seed selection via direct opinion computation ("DM").

Paper Alg. 1 + §III-C: each greedy round scores every candidate seed by
recomputing exact opinions at the horizon (t FJ steps) with the candidate
added to the current seed set, and picks the max marginal gain.
``greedy_picks`` is one lazy-greedy run that yields a pick at a time and
keeps its state between draws (``greedy_dm`` takes its first k): CELF
[49] for the (submodular) cumulative score, and plain greedy for the rank
scores.  Those are not
submodular, but each user's horizon opinion is (the §V reverse-walk
coverage view), so ``ExactEvaluator.bound`` caps F(S ∪ {v}) from the
all-candidate batch at S = ∅, and a plain round re-scores only the
candidates whose cap can still win it: UBLF's upper-bound pruning
(Zhou et al., ICDM 2013), of which CELF is the cumulative special case.

Everything runs on the driver, as in the paper's single-process DM.
``ExactEvaluator`` is the one exact F(S ∪ {v}) (DM, GED-T, Table VI, the
sandwich's S_L and S_F); each batch runs one of its two exact kernels,
chosen from the graph's n alone:

* up to ``DENSE_N_THRESHOLD`` nodes, ``_layered``: an (n × batch) opinion
  block, one column per candidate, whose FJ aggregation adds the in-edges
  layer by layer (``OpinionGraph.in_layers``), t·batch·m flops; each run
  of layers holding at most n edges is gathered in one call, and a batch
  of at least 2·``_CHUNK_COLS`` columns runs as column chunks on threads,
  one per CPU;
* above it, ``_reach_local``: one base trajectory b^(0..t)[S], then the
  change seeding each candidate makes, propagated for t steps only over
  (candidate, node) pairs inside the candidate's t-hop forward reach
  N_v^(t) (Def. 2), so F(S ∪ {v}) = F(S) + the change in each reached
  user's contribution.

The layered rows pin each row's own seed to 1 and are bit-identical to
``fj_diffuse_np`` with the candidate seeded, on any number of threads (a
column is computed alone, the same products added in the same order), so
up to ``DENSE_N_THRESHOLD`` nodes every exact F is that of ``score_rows``
on ``fj_diffuse_np``'s opinions; reach-local differs from it only in float
rounding (DESIGN.md §2).  No exact kernel calls BLAS.  On both kernels a
candidate's F is the same bits in any batch, so the greedy loop compares
values scored in different batches.  For the same reason each graph keeps
one batch, whatever score it was made for: the all-candidate batch at
S = ∅, kept by ``OpinionGraph.kept`` under the key (target, t) alone,
since the graph is read-only.  DM, GED-T and the sandwich's LB and S_F
greedy all start from it, and ``bound`` reads its Δ; batches at S ≠ ∅
run their kernel and keep nothing.  F comes from
``voting.scores.score_rows``; the reach-local change is a plain Σδ for
the cumulative score and ``voting.scores.score_change`` (one group per
candidate row, one unit per reached node) for the rank scores.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from repro.graphs.graph import (
    DENSE_N_THRESHOLD,
    OpinionGraph,
    out_edges,
    reach,
    segment_sum,
    spmv_dst,
)
from repro.opinion.fj import fj_diffuse_np, unseeded_horizon_np
from repro.voting.scores import score_change, score_rows

# Kernel choice reads only n.  Above DENSE_N_THRESHOLD nodes (set in
# ``graphs.graph``, whose ``reach`` splits at the same size) a batch runs
# reach-local: on twitter-sd-lite (n = 3 245) an all-candidate batch
# takes 0.02 s, against 42 s for dense BLAS rows.  Small graphs keep every
# opinion row, since a candidate reaches most of the graph (94 % of
# yelp-lite in t = 20 hops; reach-local took 2.8 s there, 2× dense BLAS),
# and run them layered (t·batch·m flops).  Dense BLAS rows (t·batch·n²)
# lost to the layered kernel on every lite graph: one all-candidate
# plurality batch at t = 20 on dblp-lite (n²/m = 20, the densest) took
# 0.456 s dense against 0.240 s layered (``test_exact_batch_time``,
# BENCH_efficiency.json entries 8480c27 and d7f6a29, medians of 5
# alternating runs, 4-core host).

# ``_layered`` splits a batch of at least 2·_CHUNK_COLS columns into column
# chunks, at most nb // _CHUNK_COLS of them, run on _POOL's threads.  Narrow
# chunks lose to the GIL, which every NumPy call takes to start: on
# yelp-lite (t = 20, S = [3], medians of 9, 4-core host) 128 columns took
# 41 ms in one chunk, 34 ms in two of 64 and 66 ms in four of 32; 256
# columns took 90 ms in one and 55 ms in two of 128.
_CHUNK_COLS = 128
# One chunk per CPU the process may run on (``os.sched_getaffinity``): the
# 966-column batch took 354, 190, 141 and 126 ms in 1, 2, 3 and 4 chunks on
# the same host.  Threads start on first use, at most one per chunk.
_POOL = ThreadPoolExecutor(max_workers=os.cpu_count(), thread_name_prefix="layered")
# ``bound`` adds this to every user's opinion: far above the kernels'
# rounding (about 1e-14 at t = 20), so the bound holds for their F too.
_SLACK = 1e-9
# Candidate rows per ``bound`` block over the kept (n × n) Δ.
_BOUND_ROWS = 64


def others_at_horizon(graph: OpinionGraph, target: int, t: int) -> np.ndarray:
    """Exact horizon opinions of all non-target candidates (no seeds)."""
    return np.delete(unseeded_horizon_np(graph, t), target, axis=0)


def _layer_runs(ptr: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Layers 1, 2, … of ``InLayers.ptr`` grouped, in order, into runs
    ``(first, end)`` of consecutive layers ``first .. end - 1`` holding at
    most ``cap`` edges together.  No layer holds more than n edges, so with
    ``cap`` ≥ n each layer lies in exactly one run; a graph whose in-degrees
    are all 1 has one layer and no run."""
    runs, first, last = [], 1, len(ptr) - 1
    for end in range(first + 1, last + 1):
        if ptr[end] - ptr[first] > cap:
            runs.append((first, end - 1))
            first = end - 1
    if first < last:
        runs.append((first, last))
    return runs


def _layered_block(lay, b0, d, pins, t) -> np.ndarray:
    """The (n × len(pins)) node-major block of ``ExactEvaluator._layered``
    after t FJ steps from ``b0`` and ``d`` (in new labels), column j with
    node ``pins[j]`` (a new label) seeded.

    Two blocks swap roles every step.  Each run's sources, weights and
    buffer, and each layer's row prefix of both blocks and slice of the
    buffer, are cut once per call, not once per step.
    """
    n, nb = len(b0), len(pins)
    keep, fixed = (1.0 - d)[:, None], (d * b0)[:, None]
    cols = np.arange(nb)
    B = np.repeat(b0[:, None], nb, axis=1)
    B[pins, cols] = 1.0
    blocks, part = (B, np.empty_like(B)), np.empty_like(B)
    src0, w0 = lay.src[:n], lay.w[:n, None]
    ptr, gathers = lay.ptr, []
    for first, end in _layer_runs(ptr, n):
        lo, hi = ptr[first], ptr[end]
        cuts = [(ptr[r + 1] - ptr[r], ptr[r] - lo) for r in range(first, end)]
        adds = [[(X[:size], part[at : at + size]) for size, at in cuts] for X in blocks]
        gathers.append((lay.src[lo:hi], lay.w[lo:hi, None], part[: hi - lo], adds))
    for s in range(t):
        prev, new = blocks[s % 2], blocks[(s + 1) % 2]
        prev.take(src0, axis=0, out=new, mode="clip")
        np.multiply(new, w0, out=new)
        for src, w, terms, adds in gathers:
            prev.take(src, axis=0, out=terms, mode="clip")
            np.multiply(terms, w, out=terms)
            for rows, layer in adds[(s + 1) % 2]:
                np.add(rows, layer, out=rows)
        np.multiply(new, keep, out=new)
        np.add(new, fixed, out=new)
        new[pins, cols] = 1.0  # seed row: d=1, b0=1 ⇒ stays 1
    return blocks[t % 2]


class ExactEvaluator:
    """Exact F(S ∪ {v}) for a batch of candidates v, on the driver.

    ``__call__(seeds, cand_seeds)`` returns a NumPy array of scores
    aligned with ``cand_seeds``.  ``others`` is the (r-1, n) matrix of the
    non-target candidates' exact horizon opinions (they have no seeds, so
    it is constant across the greedy run); ``user_mask`` restricts the
    cumulative sum to a user subset (the sandwich LB, Def. 3).  The leading
    ``spark`` argument is perfbench's and ignored; callers in ``repro``
    pass ``None``.

    Every evaluator on a graph reads one batch, kept on the graph: the
    all-candidate batch at S = ∅ for its target and t, made on first use by
    whichever evaluator needs it, whatever the score, and made again for
    another target or t.  A call at S = ∅ scores it and returns the
    candidates' F; a call at S ≠ ∅ runs the kernel and keeps nothing.  The
    rank scores' ``bound`` reads Δ_u(v) = b_u[{v}] − b_u[∅] from it.
    """

    # No batch runs on Spark; perfbench's TimedEvaluator reads this.
    spark = None

    def __init__(
        self,
        spark,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        *,
        p: int = 1,
        omega: np.ndarray | None = None,
        user_mask: np.ndarray | None = None,
    ):
        if user_mask is not None and score != "cumulative":
            raise ValueError(f"a user mask applies to the cumulative score only, not {score!r}")
        self.graph = graph
        self.target = target
        self.t = t
        self.score = score
        self.p = p
        self.omega = omega
        self.user_mask = user_mask
        self.others = (
            None if score == "cumulative" else others_at_horizon(graph, target, t)
        )

    def __call__(self, seeds: Sequence[int], cand_seeds: Sequence[int]) -> np.ndarray:
        cands, n = np.asarray(cand_seeds, dtype=np.int64), self.graph.n
        if len(seeds):
            if n > DENSE_N_THRESHOLD:
                return self._reach_local(seeds, cands)
            return self._score(self._layered(seeds, cands))
        base, batch = self._batch()
        if n > DENSE_N_THRESHOLD:
            return self._pair_score(base, batch, n)[cands]
        return self._score(batch)[cands]

    def score_of(self, seeds: Sequence[int]) -> float:
        """Exact F(S) (no extra candidate)."""
        return float(self._score(self._horizon(seeds)))

    def bound(self, seeds: Sequence[int]) -> np.ndarray | None:
        """An upper bound on F(S ∪ {v}) for every node v, as an (n,) array;
        ``None`` for the cumulative score.

        Δ comes from the graph's kept batch at S = ∅.  Each user's horizon
        opinion is monotone submodular in S, so b_u[S ∪ {v}] − b_u[S] ≤
        Δ_u(v), and every rank score is monotone in each target opinion: F
        scored at b[S] + Δ_v, plus ``_SLACK`` on every user, is ≥ the
        kernels' F(S ∪ {v}).
        """
        if self.score == "cumulative":
            return None
        (base, batch), n = self._batch(), self.graph.n
        up = self._horizon(seeds) + _SLACK
        if n > DENSE_N_THRESHOLD:
            prow, pnode, delta, _ = batch
            return self._score(up) + score_change(
                up, self.others, self.score, prow, pnode, up[pnode] + delta, n,
                p=self.p, omega=self.omega,
            )
        out = np.empty(n)
        for lo in range(0, n, _BOUND_ROWS):
            hi = lo + _BOUND_ROWS
            out[lo:hi] = self._score(up + (batch[lo:hi] - base))
        return out

    def _batch(self) -> tuple[np.ndarray, object]:
        """The graph's all-candidate batch at S = ∅, kept under the key
        (target, t) whatever the score: ``(b[∅], rows)`` on the layered
        kernel, the (n × n) b[{v}] with candidate v in row v, and
        ``(b[∅], pairs)`` on reach-local (see ``_pairs``).  The layered
        b[∅] is one row's diffusion, bit for bit that row of B^(t)[∅], so
        no cumulative evaluator makes the r-row one."""

        def make():
            everyone = np.arange(self.graph.n)
            if self.graph.n <= DENSE_N_THRESHOLD:
                return self._horizon([]), self._layered([], everyone)
            base, pairs = self._pairs([], everyone)
            # Copied once the kernel's temporaries are freed: kept where the
            # kernel left them, the pairs pinned about 4 MB of freed heap
            # (perfbench twitter-cumulative peak RSS, median of 7 seeds on a
            # 4-core host: 180.7 MB kept as made, 176.2 MB copied).
            return base, tuple(a.copy() for a in pairs)

        return self.graph.kept("exact_batch", (self.target, self.t), make)

    def _horizon(self, seeds) -> np.ndarray:
        """The target's exact horizon opinions b[S] (n,)."""
        g = self.graph.with_seeds(self.target, seeds)
        return fj_diffuse_np(g, self.t, cand=self.target)

    def _score(self, b: np.ndarray) -> np.ndarray:
        """F of each row of target opinions ``b``."""
        return score_rows(
            b, self.others, self.score, p=self.p, omega=self.omega, user_mask=self.user_mask
        )

    def _layered(self, seeds, cand_seeds):
        """Every candidate's (batch × n) opinion row, bit-identical to
        ``fj_diffuse_np`` with the candidate added to S.

        The batch is node-major, an (n × batch) block in ``in_layers``
        labels.  One FJ step adds layer r's terms w_ij·b_i into the prefix
        of rows it covers, r = 0, 1, …: every node sums its terms in edge
        order, starting from the first, as ``segment_sum`` does.

        Layer 0 is gathered straight into the new block.  The layers after
        it are grouped into runs of at most n edges (``_layer_runs``): each
        run's terms are gathered and weighted in one ``take`` and one
        ``multiply``, then added layer by layer, so a step makes about
        L + 2·runs NumPy calls for L layers, not 3·L.  The products and the
        order of the additions are those of one layer at a time, so the bits
        are too.  The gathers use ``mode="clip"`` (the sources are in range
        by construction): under the default ``"raise"`` NumPy buffers ``out``
        and holds the GIL, about 3× slower for the same rows.

        The batch runs on ``_POOL``'s threads, split into contiguous column
        chunks, one per CPU the process may run on, when it has at least
        2·``_CHUNK_COLS`` columns: the gathers and ufuncs release the GIL.
        Each chunk owns its three (n × chunk) blocks, so memory does not
        grow, and each column is computed exactly as it would be alone.
        """
        lay = self.graph.in_layers()
        g = self.graph.with_seeds(self.target, seeds)
        b0, d = g.b0[self.target, lay.order], g.d[self.target, lay.order]
        pins = lay.rank[cand_seeds]
        nb = len(pins)
        chunks = max(1, min(len(os.sched_getaffinity(0)), nb // _CHUNK_COLS))
        bounds = [nb * i // chunks for i in range(chunks + 1)]
        out = np.empty((nb, len(b0)))

        def chunk(lo, hi):
            block = _layered_block(lay, b0, d, pins[lo:hi], self.t)
            out[lo:hi] = block.take(lay.rank, axis=0, mode="clip").T

        list(_POOL.map(chunk, bounds[:-1], bounds[1:]))
        return out

    def _reach_local(self, seeds, cand_seeds):
        """F(S ∪ {v}) = F(S) + the change seeding v makes inside its t-hop reach."""
        return self._pair_score(*self._pairs(seeds, cand_seeds), len(cand_seeds))

    def _pairs(self, seeds, cand_seeds):
        """b^(t)[S], and the change δ^(t) seeding each candidate makes, on
        (candidate row, node) pairs: ``(b, (prow, pnode, δ, roots))``, where
        ``roots`` are the pairs of each candidate with itself.

        FJ is linear: with S fixed, seeding v changes b^(s) by δ^(s), where
        δ_v^(s) = 1 − b_v^(s)[S], δ is 0 on S, and elsewhere
        δ_j^(s+1) = (1 − d_j)·Σ_i w_ij·δ_i^(s).  δ^(t) is therefore zero
        outside N_v^(t) taken without passing through S.  One base trajectory
        b^(0..t)[S] serves the whole batch; δ lives on (candidate, node) pairs
        and moves along the edges between them.
        """
        graph, t = self.graph, self.t
        n, nb = graph.n, len(cand_seeds)
        g = graph.with_seeds(self.target, seeds)
        b0, d = g.b0[self.target], g.d[self.target]
        b = b0.copy()
        root_b = [b[cand_seeds]]
        for _ in range(t):
            b = (1.0 - d) * spmv_dst(graph, b) + d * b0
            root_b.append(b[cand_seeds])

        seeded = np.zeros(n, dtype=bool)
        seeded[list(seeds)] = True
        indptr, nbr, w = graph.forward_csr()
        pnode, offsets = reach(indptr, nbr, cand_seeds, t, blocked=seeded)
        prow = np.repeat(np.arange(nb), np.diff(offsets))
        keys = prow * n + pnode  # sorted: each candidate's set is ascending
        roots = np.searchsorted(keys, np.arange(nb) * n + cand_seeds)
        # Edges between pairs of the same candidate row.
        owner, slot = out_edges(indptr, pnode)
        tkey = prow[owner] * n + nbr[slot]
        tgt = np.minimum(np.searchsorted(keys, tkey), len(keys) - 1)
        hit = keys[tgt] == tkey
        esrc, etgt, ew = owner[hit], tgt[hit], w[slot[hit]]

        keep = 1.0 - d[pnode]
        delta = np.zeros(len(keys))
        delta[roots] = 1.0 - root_b[0]
        for s in range(1, t + 1):
            delta = keep * segment_sum(delta[esrc] * ew, etgt, len(keys))
            delta[roots] = 1.0 - root_b[s]
        return b, (prow, pnode, delta, roots)

    def _pair_score(self, b, pairs, nb):
        """F(S ∪ {v}) for ``nb`` candidate rows from ``_pairs``' output."""
        prow, pnode, delta, roots = pairs
        base = self._score(b)
        if self.score == "cumulative":  # linear: F rises by Σδ over the reached users
            mask = self.user_mask
            lift = delta if mask is None else delta * mask[pnode]
            return base + segment_sum(lift, prow, nb)
        new = b[pnode] + delta
        new[roots] = 1.0  # the seed's opinion, exactly (ranks compare it)
        return base + score_change(
            b, self.others, self.score, prow, pnode, new, nb, p=self.p, omega=self.omega
        )


def greedy_picks(evaluator: ExactEvaluator, *, celf: bool) -> Iterator[tuple[int, float]]:
    """Alg. 1 (greedy), lazy with CELF [49] or plain: yields (the next seed,
    exact F of the seeds so far) from S = ∅ until every node is picked.

    CELF is valid for the submodular cumulative score; the rank scores run
    plain (``celf=False``), as the paper uses CELF for cumulative only.
    Each candidate keeps its last F(S ∪ {v}), the gain over the F(S) it was
    scored against and the round it was scored in, between draws too:
    drawing more picks continues the run, so a longer ``select(k)`` pays
    only for its new rounds.  A round re-scores the stale candidates ranked
    above the first fresh one (by gain, ties to the smaller id) in one
    batch, in ascending id order, until the top candidate is fresh, and
    picks it.  A run's first batch holds every candidate; CELF's later
    batches hold at most 32.

    Plain greedy ranks a stale candidate by the gain of the evaluator's
    ``bound(S)`` over F(S).  Its rounds make at most two calls: the top 32,
    then every stale candidate ranked above the best one scored, whose
    bound can still beat or tie it.  The picks and trace are those of
    scoring every candidate.  An evaluator without ``bound``, or whose
    ``bound`` returns ``None`` (the cumulative score), has every candidate
    scored each round.
    """
    n = evaluator.graph.n
    seeds: list[int] = []
    base = evaluator.score_of(seeds)
    bound = None if celf else getattr(evaluator, "bound", None)
    # Unscored candidates rank first; picked ones rank last and are never stale.
    val, gain, when = np.zeros(n), np.full(n, np.inf), np.full(n, -1)
    for rnd in range(n):
        first = rnd == 0  # a run's first batch scores every candidate
        ub = None if first or bound is None else bound(seeds)
        if ub is not None:
            stale = when < rnd
            gain[stale] = ub[stale] - base
        lazy, cap = not first and (celf or ub is not None), 32
        while when[top := int(np.argmax(gain))] < rnd:
            if lazy:  # the stale run ranked above the first fresh candidate
                ranked = np.argsort(-gain, kind="stable")[:cap]
                batch = np.sort(ranked[np.logical_and.accumulate(when[ranked] < rnd)])
                cap = 32 if celf else n  # pruned: then all that can still win, at once
            else:
                batch = np.flatnonzero(when < rnd)
            val[batch] = evaluator(seeds, batch)
            gain[batch], when[batch] = val[batch] - base, rnd
        base = float(val[top])  # the evaluator's F, not a running sum of gains
        seeds.append(top)
        gain[top], when[top] = -np.inf, n
        yield top, base


def greedy_dm(
    evaluator: ExactEvaluator, k: int, *, celf: bool = True
) -> tuple[list[int], list[float]]:
    """The first k seeds of ``greedy_picks``, in selection order, and the
    exact F after each pick.  Raises ``ValueError`` unless 0 ≤ k ≤ n.
    """
    if not 0 <= k <= evaluator.graph.n:
        raise ValueError(f"cannot select k={k} seeds from {evaluator.graph.n} nodes")
    picks = list(islice(greedy_picks(evaluator, celf=celf), k))
    return [v for v, _ in picks], [f for _, f in picks]
