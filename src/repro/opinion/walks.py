"""Reverse random-walk opinion estimation (paper §V).

Direct Generation (§V-A): a walk starts at ``u`` on the *reverse* graph;
at each of ``t`` steps it terminates at the current node ``v`` with
probability ``d_v`` (stubbornness), otherwise moves to one in-neighbor
sampled with probability ``w_uv``.  The start node's estimated opinion is
the *initial* opinion of the end node (Thm 8: unbiased for ``b^(t)``).

Post-Generation Truncation (§V-B): walks are generated **once** with the
empty seed set; for a seed set ``S`` a walk is truncated at the first
occurrence of a node in ``S`` and its estimate becomes 1 (Thm 9: still
unbiased).  The greedy algorithms collect the walks to the driver once and
truncate them there (``core.sketch``) — no regeneration.

Spark layering: the graph (alias tables + stubbornness + initial opinions)
is broadcast; the work list (one row per walk) is a DataFrame; the
vectorized NumPy kernel runs per partition via ``mapInPandas``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.graphs.graph import AliasTable, OpinionGraph

WALK_SCHEMA = T.StructType(
    [
        T.StructField("walk_id", T.LongType()),
        T.StructField("start", T.LongType()),
        T.StructField("path", T.ArrayType(T.IntegerType())),
        T.StructField("op", T.DoubleType()),
    ]
)


def walk_kernel(
    starts: np.ndarray,
    t: int,
    alias: AliasTable,
    d: np.ndarray,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Vectorized generation of one t-step reverse walk per start node.

    Returns the node sequences (start included at position 0).  A walk
    that terminates early (stubbornness draw) simply stops extending.
    """
    nw = len(starts)
    paths: list[list[int]] = [[int(s)] for s in starts]
    cur = starts.astype(np.int64).copy()
    alive = np.ones(nw, dtype=bool)
    for _ in range(t):
        idx = np.flatnonzero(alive)
        if len(idx) == 0:
            break
        stop = rng.random(len(idx)) < d[cur[idx]]
        alive[idx[stop]] = False
        move = idx[~stop]
        if len(move) == 0:
            continue
        nxt = alias.sample(cur[move], rng)
        cur[move] = nxt
        for i, v in zip(move, nxt):
            paths[i].append(int(v))
    return paths


def generate_walks_np(
    graph: OpinionGraph,
    cand: int,
    starts: np.ndarray,
    t: int,
    *,
    seed: int,
) -> pd.DataFrame:
    """Reference generator (driver-side) — one walk per entry of ``starts``."""
    rng = np.random.default_rng(seed)
    paths = walk_kernel(
        np.asarray(starts, dtype=np.int64), t, graph.reverse_alias(), graph.d[cand], rng
    )
    ends = np.array([p[-1] for p in paths], dtype=np.int64)
    return pd.DataFrame(
        {
            "walk_id": np.arange(len(paths), dtype=np.int64),
            "start": np.asarray(starts, dtype=np.int64),
            "path": paths,
            "op": graph.b0[cand, ends],
        }
    )


def generate_walks(
    spark: SparkSession,
    graph: OpinionGraph,
    cand: int,
    t: int,
    *,
    lam: int | None = None,
    starts: np.ndarray | None = None,
    seed: int = 0,
    partitions: int | None = None,
) -> DataFrame:
    """Walks DataFrame ``(walk_id, start, path, op)``.

    Either ``lam`` walks from *every* node (RW, Alg. 4) or exactly one walk
    per entry of ``starts`` (RS sketches, Alg. 5).  The alias tables /
    stubbornness / initial opinions are broadcast once; each partition runs
    the vectorized kernel with an independent RNG stream derived from
    ``seed`` and the partition's first walk id (deterministic).
    """
    if (lam is None) == (starts is None):
        raise ValueError("pass exactly one of lam= or starts=")
    if starts is None:
        starts = np.repeat(np.arange(graph.n, dtype=np.int64), lam)
    else:
        starts = np.asarray(starts, dtype=np.int64)
    sc = spark.sparkContext
    bc = sc.broadcast(
        (graph.reverse_alias(), graph.d[cand].copy(), graph.b0[cand].copy())
    )
    nparts = partitions or min(sc.defaultParallelism * 2, max(1, len(starts) // 256))
    work = spark.createDataFrame(
        pd.DataFrame({"walk_id": np.arange(len(starts), dtype=np.int64), "start": starts})
    ).repartition(nparts)

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        alias, d, b0 = bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, int(pdf["walk_id"].iloc[0])])
            )
            paths = walk_kernel(pdf["start"].to_numpy(), t, alias, d, rng)
            ends = np.array([p[-1] for p in paths], dtype=np.int64)
            yield pd.DataFrame(
                {
                    "walk_id": pdf["walk_id"].to_numpy(),
                    "start": pdf["start"].to_numpy(),
                    "path": paths,
                    "op": b0[ends],
                }
            )

    return work.mapInPandas(gen, WALK_SCHEMA)


def truncated_estimate_np(
    path: list[int], op: float, seeds: set[int], b0_end_is_op: bool = True
) -> float:
    """Reference truncation for one walk (tests): first seed hit → 1."""
    for v in path:
        if v in seeds:
            return 1.0
    return op
