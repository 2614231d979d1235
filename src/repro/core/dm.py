"""Exact greedy seed selection via direct opinion computation ("DM").

Paper Alg. 1 + §III-C: each greedy round scores every candidate seed by
recomputing exact opinions at the horizon (t FJ steps) with the candidate
added to the current seed set, and picks the max marginal gain.  CELF [49]
is layered on top for the (submodular) cumulative score.

Distributed layering: the candidate-seed list is a DataFrame partitioned
across executors; the graph (dst-sorted COO + b0/d + the non-target
candidates' exact horizon opinions) is broadcast; each partition runs a
*batched* FJ iteration — a dense ``(batch × n)`` opinion matrix advanced
jointly, with each row's own seed column pinned to 1 — via
``mapInPandas``.  This is the natural Spark port of the paper's
single-core DM (see DESIGN.md §2).
"""
from __future__ import annotations

import heapq
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import fj_diffuse_np
from repro.voting.scores import duels, score_np, unit_contribution

# Below this node count the batched FJ iteration uses a dense W (BLAS);
# above it, segment-reduceat over the dst-sorted sparse COO arrays.
DENSE_N_THRESHOLD = 1500

_EVAL_SCHEMA = T.StructType(
    [T.StructField("cand_seed", T.LongType()), T.StructField("fscore", T.DoubleType())]
)


def batch_scores_np(
    graph: OpinionGraph,
    target: int,
    seeds: Sequence[int],
    cand_seeds: np.ndarray,
    t: int,
    score: str,
    *,
    others: np.ndarray | None = None,
    p: int = 1,
    omega: np.ndarray | None = None,
    user_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Exact ``F(S ∪ {v})`` for every v in ``cand_seeds`` (vectorized).

    ``others`` is the (r-1, n) matrix of non-target candidates' exact
    opinions at the horizon (they have no seeds, so it is constant across
    the greedy run).  ``user_mask`` restricts the cumulative sum to a user
    subset (used by the sandwich LB, Def. 3).
    """
    g = graph.with_seeds(target, seeds)
    b0, d = g.b0[target], g.d[target]
    nb = len(cand_seeds)
    rows = np.arange(nb)
    M = np.tile(b0, (nb, 1))
    M[rows, cand_seeds] = 1.0
    # Two aggregation kernels for M·W: dense BLAS for small n (the lite
    # scale), segment-reduceat over the dst-sorted COO otherwise.
    dense = graph.n <= DENSE_N_THRESHOLD
    W = graph.dense_w() if dense else None
    indptr = None if dense else graph.dst_indptr()
    for _ in range(t):
        if dense:
            agg = M @ W
        else:
            contrib = M[:, graph.src] * graph.w
            agg = np.add.reduceat(contrib, indptr[:-1], axis=1)
        M = (1.0 - d) * agg + d * b0
        M[rows, cand_seeds] = 1.0  # seed row: d=1, b0=1 ⇒ stays 1
    if score == "cumulative":
        if user_mask is not None:
            return M[:, user_mask].sum(axis=1)
        return M.sum(axis=1)
    assert others is not None, "rank-based scores need the others matrix"
    if score == "copeland":
        above, below = duels(M, others)
        return (above.sum(axis=-1) > below.sum(axis=-1)).sum(axis=0).astype(np.float64)
    return unit_contribution(M, others, score, p=p, omega=omega).sum(axis=1)


def others_at_horizon(graph: OpinionGraph, target: int, t: int) -> np.ndarray:
    """Exact horizon opinions of all non-target candidates (no seeds)."""
    b = fj_diffuse_np(graph, t)
    return np.delete(b, target, axis=0)


class ExactEvaluator:
    """Batched exact F(S ∪ {v}) evaluation, Spark-distributed.

    ``__call__(seeds, cand_seeds)`` returns a NumPy array of scores
    aligned with ``cand_seeds``.  Small work lists (< ``local_threshold``)
    are evaluated driver-side to avoid job overhead; larger ones are
    partitioned and evaluated with the broadcast graph.
    """

    def __init__(
        self,
        spark: SparkSession | None,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        *,
        p: int = 1,
        omega: np.ndarray | None = None,
        user_mask: np.ndarray | None = None,
        local_threshold: int = 256,
        batch: int = 512,
    ):
        self.spark = spark
        self.graph = graph
        self.target = target
        self.t = t
        self.score = score
        self.p = p
        self.omega = omega
        self.user_mask = user_mask
        self.local_threshold = local_threshold
        self.batch = batch
        self.others = (
            None if score == "cumulative" else others_at_horizon(graph, target, t)
        )
        self._bc = None
        if spark is not None:
            self._bc = spark.sparkContext.broadcast(
                (graph, target, t, score, self.others, p, omega, user_mask)
            )

    def __call__(self, seeds: Sequence[int], cand_seeds: Sequence[int]) -> np.ndarray:
        cand_seeds = np.asarray(list(cand_seeds), dtype=np.int64)
        if self.spark is None or len(cand_seeds) <= self.local_threshold:
            return batch_scores_np(
                self.graph,
                self.target,
                seeds,
                cand_seeds,
                self.t,
                self.score,
                others=self.others,
                p=self.p,
                omega=self.omega,
                user_mask=self.user_mask,
            )
        bc, batch, seeds = self._bc, self.batch, list(seeds)
        work = self.spark.createDataFrame(pd.DataFrame({"cand_seed": cand_seeds}))
        nparts = max(1, len(cand_seeds) // batch)
        work = work.repartition(min(nparts, self.spark.sparkContext.defaultParallelism * 4))

        def ev(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            graph, target, t, score, others, p, omega, mask = bc.value
            for pdf in pdfs:
                if len(pdf) == 0:
                    continue
                cs = pdf["cand_seed"].to_numpy()
                for lo in range(0, len(cs), batch):
                    chunk = cs[lo : lo + batch]
                    vals = batch_scores_np(
                        graph, target, seeds, chunk, t, score,
                        others=others, p=p, omega=omega, user_mask=mask,
                    )
                    yield pd.DataFrame({"cand_seed": chunk, "fscore": vals})

        res = work.mapInPandas(ev, _EVAL_SCHEMA).toPandas()
        res = res.set_index("cand_seed").loc[cand_seeds, "fscore"]
        return res.to_numpy()

    def score_of(self, seeds: Sequence[int]) -> float:
        """Exact F(S) (no extra candidate)."""
        g = self.graph.with_seeds(self.target, seeds)
        bq = fj_diffuse_np(g, self.t, cand=self.target)
        if self.score == "cumulative":
            if self.user_mask is not None:
                return float(bq[self.user_mask].sum())
            return float(bq.sum())
        stacked = np.vstack([bq[None, :], self.others])
        return score_np(stacked, 0, self.score, p=self.p, omega=self.omega)


def greedy_dm(
    evaluator: ExactEvaluator,
    k: int,
    *,
    celf: bool = True,
    candidates: np.ndarray | None = None,
    init: list[int] | None = None,
) -> tuple[list[int], list[float]]:
    """Alg. 1 (greedy) with optional CELF lazy evaluation.

    Returns (seed list in selection order, exact F after each pick).
    CELF is valid for the submodular cumulative score; for the
    non-submodular scores pass ``celf=False`` (plain greedy), matching the
    paper's use of CELF for cumulative only.  ``init`` resumes a plain
    greedy run from an already-selected prefix (greedy is incremental).
    """
    n = evaluator.graph.n
    pool = np.arange(n) if candidates is None else np.asarray(candidates)
    seeds: list[int] = list(init or [])
    trace: list[float] = []
    base = evaluator.score_of(seeds)

    if not celf:
        for _ in range(len(seeds), k):
            cands = np.array([v for v in pool if v not in seeds])
            vals = evaluator(seeds, cands)
            best = int(cands[np.argmax(vals)])
            seeds.append(best)
            base = float(np.max(vals))
            trace.append(base)
        return seeds, trace

    if seeds:
        raise ValueError("init resume is only supported with celf=False")
    # CELF: heap of (-gain, node, round_computed)
    vals = evaluator(seeds, pool)
    heap = [(-(v - base), int(c), 0) for v, c in zip(vals, pool)]
    heapq.heapify(heap)
    for rnd in range(1, k + 1):
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
