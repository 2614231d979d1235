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

RNG contract (counter-based; Salmon et al., SC 2011; SplitMix64 of Steele,
Lea & Flood, OOPSLA 2014).  Every random number of sketch ``id`` is a pure
function of ``(seed, id, step, lane)``:

* the sketch's stream key is output ``id`` of SplitMix64 seeded with
  ``seed``;
* uniform ``(step, lane)`` is output ``LANES·step + lane`` of SplitMix64
  seeded with that key, its top 53 bits scaled to [0, 1).

A walk step reads lane ``COIN`` (stubbornness coin), then ``SLOT`` and
``ACCEPT`` (the alias draw); an IC RR set reads lane ``COIN`` with the
reverse-CSR edge slot as its step.  Lane ``START`` at step 0 is reserved for a
uniformly drawn start node (RS sketches, IM roots).  A sketch therefore
does not depend on which other ids share its batch, partition or core.

Spark layering: ``spark.range(N)`` spreads the sketch ids over
``defaultParallelism`` partitions and ``mapInArrow`` runs the vectorized
frontier kernel (``reverse_walks``) on each Arrow batch of ids, emitting
flat node arrays as one Arrow list column.  The driver calls the same
kernel on one id range.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
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

LANES = 4
COIN, SLOT, ACCEPT, START = range(LANES)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(state, i) -> np.ndarray:
    """Output ``i`` (0-based) of SplitMix64 seeded with ``state`` (uint64)."""
    with np.errstate(over="ignore"):
        z = state + (np.asarray(i, dtype=np.uint64) + np.uint64(1)) * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def stream_keys(seed: int, ids: np.ndarray) -> np.ndarray:
    """One uint64 stream key per sketch id."""
    return _splitmix64(np.uint64(seed % (1 << 64)), np.asarray(ids, dtype=np.int64))


def uniforms(keys: np.ndarray, step, lane: int) -> np.ndarray:
    """Uniform [0, 1) number ``(step, lane)`` of each key's stream."""
    counter = np.asarray(step, dtype=np.uint64) * np.uint64(LANES) + np.uint64(lane)
    return (_splitmix64(keys, counter) >> np.uint64(11)) * 2.0**-53


def uniform_nodes(keys: np.ndarray, n: int) -> np.ndarray:
    """One node drawn uniformly from ``range(n)`` per key (lane ``START``)."""
    return (uniforms(keys, 0, START) * n).astype(np.int64)


def flatten_paths(count: int, steps: list[tuple[np.ndarray, np.ndarray]]):
    """Flat ``(nodes, offsets)`` of ``count`` paths grown one step at a time.

    ``steps[s] = (idx, node)`` lists the paths still growing at step ``s``
    and the node each appends; a path grows at every step until it stops.
    """
    lengths = np.bincount(np.concatenate([idx for idx, _ in steps]), minlength=count)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    nodes = np.empty(offsets[-1], dtype=np.int32)
    for s, (idx, node) in enumerate(steps):
        nodes[offsets[idx] + s] = node
    return nodes, offsets


def reverse_walks(
    alias: AliasTable,
    d: np.ndarray,
    seed: int,
    ids: np.ndarray,
    t: int,
    *,
    lam: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One t-step reverse walk per sketch id: ``(nodes, offsets, ends)``.

    Walk ``ids[j]`` is ``nodes[offsets[j]:offsets[j + 1]]``, start included
    at position 0, and ``ends[j]`` is its last node.  It starts at
    ``id // lam`` (RW: λ walks per node) or, with ``lam=None``, at a
    uniformly drawn node (RS).  All walks advance together, one frontier
    step at a time; a walk that stops on its stubbornness coin leaves the
    frontier.
    """
    ids = np.asarray(ids, dtype=np.int64)
    keys = stream_keys(seed, ids)
    cur = ids // lam if lam else uniform_nodes(keys, len(alias.indptr) - 1)
    idx = np.arange(len(ids))
    steps = [(idx, cur)]
    for step in range(t):
        k = keys[idx]
        move = uniforms(k, step, COIN) >= d[cur]
        idx, cur, k = idx[move], cur[move], k[move]
        if not len(idx):
            break
        cur = alias.sample(cur, uniforms(k, step, SLOT), uniforms(k, step, ACCEPT))
        steps.append((idx, cur))
    nodes, offsets = flatten_paths(len(ids), steps)
    return nodes, offsets, nodes[offsets[1:] - 1]


def map_id_range(
    spark: SparkSession,
    count: int,
    kernel: Callable[[np.ndarray], list[pa.Array]],
    schema: T.StructType,
) -> DataFrame:
    """``kernel`` over ids ``0..count-1``, one Arrow batch of ids at a time.

    The ids come from ``spark.range`` in ``defaultParallelism``
    partitions; ``kernel(ids)`` returns the output columns of ``schema``.
    """
    names = schema.fieldNames()

    def gen(batches):
        for batch in batches:
            ids = batch.column(0).to_numpy()
            yield pa.RecordBatch.from_arrays(kernel(ids), names=names)

    parts = spark.sparkContext.defaultParallelism
    return spark.range(count, numPartitions=parts).mapInArrow(gen, schema)


def list_array(nodes: np.ndarray, offsets: np.ndarray) -> pa.ListArray:
    """Arrow ``list<int32>`` column of the flat paths."""
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(nodes))


def generate_walks(
    spark: SparkSession,
    graph: OpinionGraph,
    cand: int,
    t: int,
    *,
    lam: int | None = None,
    theta: int | None = None,
    seed: int = 0,
) -> DataFrame:
    """Walks DataFrame ``(walk_id, start, path, op)``.

    Either ``lam`` walks from *every* node (RW, Alg. 4; walk ``i`` starts
    at ``i // lam``) or ``theta`` walks from uniformly drawn nodes (RS
    sketches, Alg. 5).  ``op`` is the target's initial opinion of the end
    node.  Walk ``i`` is ``reverse_walks`` at id ``i``, whatever the
    partitioning.
    """
    if (lam is None) == (theta is None):
        raise ValueError("pass exactly one of lam= or theta=")
    alias, d, b0 = graph.reverse_alias(), graph.d[cand].copy(), graph.b0[cand].copy()

    def kernel(ids):
        nodes, offsets, ends = reverse_walks(alias, d, seed, ids, t, lam=lam)
        starts = nodes[offsets[:-1]].astype(np.int64)
        return [ids, starts, list_array(nodes, offsets), b0[ends]]

    return map_id_range(spark, graph.n * lam if lam else theta, kernel, WALK_SCHEMA)
