"""Exact greedy seed selection via direct opinion computation ("DM").

Paper Alg. 1 + §III-C: each greedy round scores every candidate seed by
recomputing exact opinions at the horizon (t FJ steps) with the candidate
added to the current seed set, and picks the max marginal gain.  CELF [49]
is layered on top for the (submodular) cumulative score.

Everything runs on the driver, as in the paper's single-process DM.
``ExactEvaluator`` is the one exact F(S ∪ {v}) (DM, GED-T, Table VI, the
sandwich's S_L and S_F); each batch runs one of its two exact kernels,
chosen by graph size at call time:

* up to ``DENSE_N_THRESHOLD`` nodes, ``_dense``: a ``(batch × n)`` opinion
  matrix advanced jointly with BLAS, each row's own seed column pinned
  to 1;
* above it, ``_reach_local``: one base trajectory b^(0..t)[S], then the
  change seeding each candidate makes, propagated for t steps only over
  (candidate, node) pairs inside the candidate's t-hop forward reach
  N_v^(t) (Def. 2), so F(S ∪ {v}) = F(S) + the change in each reached
  user's contribution.

Both are exact (they differ only in float rounding); see DESIGN.md §2.
F comes from ``voting.scores.score_rows``; the reach-local change is a
plain Σδ for the cumulative score and ``voting.scores.score_change`` (one
group per candidate row, one unit per reached node) for the rank scores.
"""
from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.graphs.graph import OpinionGraph, out_edges, reach, segment_sum, spmv_dst
from repro.opinion.fj import fj_diffuse_np
from repro.voting.scores import score_change, score_rows

# At or below this node count the batched FJ iteration uses a dense W
# (BLAS) over the full (batch × n) opinion matrix; above it, the reach-local
# kernel.  Dense graphs stay dense: on yelp-lite (n = 966) a candidate
# reaches 94 % of the nodes in t = 20 hops, and one all-candidate batch
# (S = ∅) takes 1.3 s dense vs 2.8 s reach-local, plurality or cumulative
# (~2×).  On twitter-sd-lite (n = 3 245) it takes 0.02 s reach-local vs
# 42 s dense (4-core host).
DENSE_N_THRESHOLD = 1500


def others_at_horizon(graph: OpinionGraph, target: int, t: int) -> np.ndarray:
    """Exact horizon opinions of all non-target candidates (no seeds)."""
    b = fj_diffuse_np(graph, t)
    return np.delete(b, target, axis=0)


class ExactEvaluator:
    """Exact F(S ∪ {v}) for a batch of candidates v, on the driver.

    ``__call__(seeds, cand_seeds)`` returns a NumPy array of scores
    aligned with ``cand_seeds``.  ``others`` is the (r-1, n) matrix of the
    non-target candidates' exact horizon opinions (they have no seeds, so
    it is constant across the greedy run); ``user_mask`` restricts the
    cumulative sum to a user subset (the sandwich LB, Def. 3).  The leading
    ``spark`` argument is unused; perfbench still passes it.
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
        cands = np.asarray(cand_seeds, dtype=np.int64)
        if self.graph.n <= DENSE_N_THRESHOLD:
            return self._dense(seeds, cands)
        return self._reach_local(seeds, cands)

    def score_of(self, seeds: Sequence[int]) -> float:
        """Exact F(S) (no extra candidate)."""
        g = self.graph.with_seeds(self.target, seeds)
        return float(self._score(fj_diffuse_np(g, self.t, cand=self.target)))

    def _score(self, b: np.ndarray) -> np.ndarray:
        """F of each row of target opinions ``b``."""
        return score_rows(
            b, self.others, self.score, p=self.p, omega=self.omega, user_mask=self.user_mask
        )

    def _dense(self, seeds, cand_seeds):
        """Every candidate's full opinion row, advanced jointly as (batch × n)."""
        graph, t = self.graph, self.t
        g = graph.with_seeds(self.target, seeds)
        b0, d = g.b0[self.target], g.d[self.target]
        nb = len(cand_seeds)
        rows = np.arange(nb)
        M = np.tile(b0, (nb, 1))
        M[rows, cand_seeds] = 1.0
        W = graph.dense_w()
        for _ in range(t):
            M = (1.0 - d) * (M @ W) + d * b0
            M[rows, cand_seeds] = 1.0  # seed row: d=1, b0=1 ⇒ stays 1
        return self._score(M)

    def _reach_local(self, seeds, cand_seeds):
        """F(S ∪ {v}) = F(S) + the change seeding v makes inside its t-hop reach.

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


def greedy_dm(
    evaluator: ExactEvaluator,
    k: int,
    *,
    celf: bool = True,
    init: list[int] | None = None,
) -> tuple[list[int], list[float]]:
    """Alg. 1 (greedy) with optional CELF lazy evaluation.

    Returns (the first k seeds in selection order, exact F after each new
    pick).  CELF is valid for the submodular cumulative score; for the
    non-submodular scores pass ``celf=False`` (plain greedy), matching the
    paper's use of CELF for cumulative only.  ``init`` resumes either run
    from an already-selected prefix: greedy is incremental, and CELF's
    lazy bounds hold from any seed set [49].  Raises ``ValueError`` unless
    0 ≤ k ≤ n.
    """
    n = evaluator.graph.n
    seeds: list[int] = list(init or [])
    if not 0 <= k <= n:
        raise ValueError(f"cannot select k={k} seeds from {n} nodes")
    if k <= len(seeds):
        return seeds[:k], []
    trace: list[float] = []
    base = evaluator.score_of(seeds)

    if not celf:
        for _ in range(len(seeds), k):
            cands = np.setdiff1d(np.arange(n), seeds)
            vals = evaluator(seeds, cands)
            best = int(cands[np.argmax(vals)])
            seeds.append(best)
            base = float(np.max(vals))
            trace.append(base)
        return seeds, trace

    # CELF: heap of (-gain, node, round_computed)
    start = len(seeds)
    cands = np.setdiff1d(np.arange(n), seeds)
    vals = evaluator(seeds, cands)
    heap = [(-(v - base), int(c), start) for c, v in zip(cands, vals)]
    heapq.heapify(heap)
    for rnd in range(start + 1, k + 1):
        while True:
            negg, node, computed = heapq.heappop(heap)
            if computed == rnd:
                seeds.append(node)
                base += -negg
                trace.append(base)
                break
            # Re-evaluate lazily, in a small batch with the next stalest.
            stale = [(negg, node)]
            while heap and len(stale) < 32 and heap[0][2] != rnd:
                ng, nd, _ = heapq.heappop(heap)
                stale.append((ng, nd))
            nodes = np.array([nd for _, nd in stale])
            new_vals = evaluator(seeds, nodes)
            for nv, nd in zip(new_vals, nodes):
                heapq.heappush(heap, (-(float(nv) - base), int(nd), rnd))
    return seeds, trace
