"""Reverse random-walk opinion estimation (paper §V).

Direct Generation (§V-A): a walk starts at ``u`` on the *reverse* graph;
at each of ``t`` steps it terminates at the current node ``v`` with
probability ``d_v`` (stubbornness), otherwise moves to one in-neighbor
sampled with probability ``w_uv``.  The start node's estimated opinion is
the *initial* opinion of the end node (Thm 8: unbiased for ``b^(t)``).

Post-Generation Truncation (§V-B): walks are generated **once** with the
empty seed set; for a seed set ``S`` a walk is truncated at the first
occurrence of a node in ``S`` and its estimate becomes 1 (Thm 9: still
unbiased).  The greedy algorithms get the walks on the driver once and
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
reverse-CSR edge slot as its step, and an LT RR set draws a node's in-edge
on ``SLOT`` and ``ACCEPT`` with the node's hop from the root as its step.
Lane ``START`` at step 0 is reserved for a uniformly drawn start node (RS
sketches, IM roots).  A sketch therefore does not depend on which other
ids share its batch, partition or core.

Where sketches are made: this is the only module that imports Spark, and
the only one that gets a session.  ``driver_sketches`` calls a flat
``(nodes, offsets)`` kernel (``reverse_walks`` here, ``rr_sets`` in
``baselines.im``) on sketch ids ``0..count-1`` on the driver,
``DRIVER_BLOCK`` ids at a time: at lite budgets a whole kernel pass costs
less than launching one Spark job.  ``map_id_range`` runs the kernel on
each Arrow batch of the ids of ``spark.range(count)`` and emits ``(id, node
list)`` rows, and ``collect_sketches`` hands them back in id order, with no
sort, in one job.  Both give the same arrays, because a sketch depends on
its id only.  Reverse walks are always made on the driver: it won at every
walk count measured.  RR sets go through ``sketches``, which takes the
Spark job above their measured crossover (``RR_DRIVER_MAX`` in
``baselines.im``).  ``map_id_range`` is the one place that asks for a
session, with ``SparkSession.builder.getOrCreate()``: a caller's live
session when there is one, else a new one configured from
``PYSPARK_SUBMIT_ARGS``.  So a run whose budgets all stay on the driver
never starts a JVM.  ``walk_kernel`` is the one closure of a walk budget.
Everything else about a walk follows from its path (its start is
``path[0]``, its estimate the initial opinion of ``path[-1]``), so
``core.sketch`` derives it on the driver.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.graph import AliasTable, OpinionGraph

LANES = 4
COIN, SLOT, ACCEPT, START = range(LANES)

WALK_COLUMNS = ("walk_id", "path")
# Ids per driver kernel call.  Timed on the same host for twitter-sd-lite
# and yelp-lite: 2^15 was the fastest block for walks, or within 15 % of it
# (twitter RW, 129 800 walks: 27 ms, against 93 ms in 2^12 blocks), and RR
# sets showed no trend from 2^12 to 2^16.
DRIVER_BLOCK = 1 << 15

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


def _flatten_paths(count: int, steps: list[tuple[np.ndarray, np.ndarray]]):
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
) -> tuple[np.ndarray, np.ndarray]:
    """One t-step reverse walk per sketch id as flat ``(nodes, offsets)``.

    Walk ``ids[j]`` is ``nodes[offsets[j]:offsets[j + 1]]``, start included
    at position 0.  It starts at ``id // lam`` (RW: λ walks per node) or,
    with ``lam=None``, at a uniformly drawn node (RS).  All walks advance
    together, one frontier step at a time; a walk that stops on its
    stubbornness coin leaves the frontier.
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
    return _flatten_paths(len(ids), steps)


def _check_budget(count: int) -> None:
    if count < 1:
        raise ValueError(f"a sketch budget must be positive: {count} sketches")


def map_id_range(
    count: int,
    kernel: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    names: tuple[str, str],
) -> DataFrame:
    """``kernel`` over ids ``0..count-1`` as a DataFrame ``(id long, list<int32>)``.

    The ids come from ``spark.range`` in ``defaultParallelism`` partitions,
    one Arrow batch at a time; ``kernel(ids)`` returns flat ``(nodes, offsets)``
    and ``names`` names the two columns.  The session is the caller's live
    one, or a new one.  A ``count`` (the sketch budget) below 1 raises
    before any session or job.
    """
    _check_budget(count)
    spark = SparkSession.builder.getOrCreate()

    def gen(batches):
        for batch in batches:
            ids = batch.column(0)
            nodes, offsets = kernel(ids.to_numpy())
            lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(nodes))
            yield pa.RecordBatch.from_arrays([ids, lists], names=list(names))

    parts = spark.sparkContext.defaultParallelism
    schema = f"{names[0]} long, {names[1]} array<int>"
    return spark.range(count, numPartitions=parts).mapInArrow(gen, schema)


def collect_sketches(df: DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Collect a ``map_id_range`` DataFrame in one Spark job as ``(nodes, offsets)``.

    Sketch ``j`` is ``nodes[offsets[j]:offsets[j + 1]]``, read in the order
    Spark returns the rows.  That is the id order, unsorted, because each
    ``spark.range`` partition is a contiguous ascending id range, batches
    keep their order within it and ``toArrow`` keeps the partition order.
    """
    lists = df.toArrow().column(1).combine_chunks()
    offsets = np.asarray(lists.offsets, dtype=np.int64)
    nodes = np.asarray(lists.values, dtype=np.int32)[offsets[0] : offsets[-1]]
    return nodes, offsets - offsets[0]


def driver_sketches(
    count: int, kernel: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """``kernel`` over ids ``0..count-1`` on the driver, as one call would give.

    The ids go in blocks of ``DRIVER_BLOCK``, so the kernel's per-id
    temporaries stay bounded whatever the budget.  A ``count`` below 1
    raises before any kernel call.
    """
    _check_budget(count)
    nodes, offsets = [], [np.zeros(1, dtype=np.int64)]
    for lo in range(0, count, DRIVER_BLOCK):
        block_nodes, block_offsets = kernel(np.arange(lo, min(lo + DRIVER_BLOCK, count)))
        nodes.append(block_nodes)
        offsets.append(block_offsets[1:] + offsets[-1][-1])
    return np.concatenate(nodes), np.concatenate(offsets)


def sketches(
    count: int,
    kernel: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    names: tuple[str, str],
    driver_max: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sketches ``0..count-1`` of ``kernel`` as flat ``(nodes, offsets)``.

    Up to ``driver_max`` ids (the kernel family's measured crossover) run
    on the driver (``driver_sketches``) and need no session; more run as
    one ``map_id_range`` job, collected by ``collect_sketches``.  The arrays
    are the same either way.  A ``count`` below 1 raises on entry to either
    path, before any kernel call or job.
    """
    if count <= driver_max:
        return driver_sketches(count, kernel)
    return collect_sketches(map_id_range(count, kernel, names))


def walk_kernel(
    graph: OpinionGraph,
    cand: int,
    t: int,
    *,
    lam: int | None = None,
    theta: int | None = None,
    seed: int = 0,
):
    """``(kernel, count)`` of a walk budget: ``kernel(ids)`` is
    ``reverse_walks`` at those ids, and ``count`` the number of walks.

    Either ``lam`` walks from *every* node (RW, Alg. 4; walk ``i`` starts
    at ``i // lam``) or ``theta`` walks from uniformly drawn nodes (RS
    sketches, Alg. 5).  ``map_id_range(count, kernel, WALK_COLUMNS)`` is
    the same walks as a Spark DataFrame ``(walk_id, path)``.
    """
    if (lam is None) == (theta is None):
        raise ValueError("pass exactly one of lam= or theta=")
    alias, d = graph.reverse_alias(), graph.d[cand]

    def kernel(ids):
        return reverse_walks(alias, d, seed, ids, t, lam=lam)

    return kernel, theta if lam is None else graph.n * lam

