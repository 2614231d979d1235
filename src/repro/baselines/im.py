"""IC/LT influence-maximization baselines via RR-set sketches (paper §VIII-A).

The paper compares against seed selection under the Independent Cascade
and Linear Threshold diffusion models, each coupled with IMM [3].  We
implement the reverse-reachable (RR) set machinery:

* IC RR set from a uniformly random root: its reverse reachable set in a
  live-edge graph where each incoming edge (u → v) is live with
  probability w_uv — the shared frontier BFS ``graphs.graph.reach`` over
  the reverse CSR, unbounded in hops, with a per-set edge coin.
* LT RR set: a reverse path — at each node pick exactly one in-neighbor
  with probability equal to its edge weight (in-weights sum to 1), stop on
  a revisit.  (Our graphs carry a self-loop on in-degree-0 nodes, which
  simply ends the path.)
* Generation: ``rr_sets`` builds a batch of sets by frontier expansion
  over all of them at once; every coin is keyed by (seed, set id, …) as
  in ``opinion.walks``, so set ``i`` is the same on the driver and in any
  Spark partition (``generate_rr_sets``, one ``mapInArrow`` job).
* Seed selection: greedy max-coverage over θ_im RR sets, collected once to
  the driver and run by the shared sketch greedy (``core.sketch``): with
  every RR set's ``op`` at 0, a node's cumulative gain is the number of
  uncovered RR sets containing it, and a pick retires the sets it covers.

Substitution vs the paper (DESIGN.md §3): IMM's adaptive martingale
stopping rule is replaced by a fixed, generous θ_im; at our scale the
selected seeds coincide with IMM's with high probability.

``expected_influence_spread`` reproduces the §VIII-C EIS metric:
n/θ · #RR sets hit by S.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.core.sketch import SketchSet, collect_sketches
from repro.graphs.graph import AliasTable, OpinionGraph, reach
from repro.opinion.walks import (
    ACCEPT,
    COIN,
    SLOT,
    flatten_paths,
    list_array,
    map_id_range,
    stream_keys,
    uniform_nodes,
    uniforms,
)

_RR_SCHEMA = T.StructType(
    [
        T.StructField("sketch_id", T.LongType()),
        T.StructField("nodes", T.ArrayType(T.IntegerType())),
    ]
)


def _member(seen: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, hit)``: insertion points of ``keys`` in sorted ``seen`` and
    whether each key is already there."""
    pos = np.searchsorted(seen, keys)
    return pos, seen[np.minimum(pos, len(seen) - 1)] == keys


def _lt_paths(alias: AliasTable, keys: np.ndarray, roots: np.ndarray):
    """LT RR paths: each step draws one in-neighbor by weight (the alias
    draw of step ``s`` reads lanes ``SLOT``/``ACCEPT``) and the path stops
    before its first revisit.  Nodes come out in path order."""
    n = len(alias.indptr) - 1
    rows = np.arange(len(roots))
    seen = rows * n + roots
    cur = roots
    steps = [(rows, cur)]
    for step in range(n):  # a path of distinct nodes has at most n
        k = keys[rows]
        cur = alias.sample(cur, uniforms(k, step, SLOT), uniforms(k, step, ACCEPT))
        pos, hit = _member(seen, rows * n + cur)
        rows, cur, pos = rows[~hit], cur[~hit], pos[~hit]
        if not len(rows):
            break
        seen = np.insert(seen, pos, rows * n + cur)
        steps.append((rows, cur))
    return flatten_paths(len(roots), steps)


def rr_sets(
    alias: AliasTable, w: np.ndarray, model: str, seed: int, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """RR sets ``ids`` of ``model`` as flat ``(nodes, offsets)``.

    Set ``ids[j]`` is ``nodes[offsets[j]:offsets[j + 1]]``; its root, drawn
    uniformly from the reserved start lane, is always in it.  ``w`` is the
    edge weight in reverse-CSR (dst-sorted) order.
    """
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown IM model: {model}")
    n = len(alias.indptr) - 1
    keys = stream_keys(seed, ids)
    roots = uniform_nodes(keys, n)
    if model == "lt":
        return _lt_paths(alias, keys, roots)

    # IC: the root's reverse reach in the set's live-edge graph.  The coin
    # of reverse-CSR edge slot e in set j is uniform (e, COIN) of the set's
    # stream, so the set does not depend on the visiting order.
    def live(rows, slot):
        return uniforms(keys[rows], slot, COIN) < w[slot]

    return reach(alias.indptr, alias.indices, roots, n, live=live)


def generate_rr_sets(
    spark: SparkSession,
    graph: OpinionGraph,
    model: str,
    theta: int,
    *,
    seed: int = 0,
) -> DataFrame:
    """θ RR sets as a DataFrame ``(sketch_id, nodes)``: set ``i`` is
    ``rr_sets`` at id ``i``, whatever the partitioning."""
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown IM model: {model}")
    alias, w = graph.reverse_alias(), graph.w

    def kernel(ids):
        return [ids, list_array(*rr_sets(alias, w, model, seed, ids))]

    return map_id_range(spark, theta, kernel, _RR_SCHEMA)


def select_seeds_im(
    spark: SparkSession,
    graph: OpinionGraph,
    model: str,
    k: int,
    *,
    theta: int = 20000,
    seed: int = 0,
) -> list[int]:
    """Greedy max-coverage over RR sets (IMM-lite seed selection)."""
    rr = generate_rr_sets(spark, graph, model, theta, seed=seed)
    _, nodes, offsets = collect_sketches(rr, "sketch_id", "nodes")
    return SketchSet(graph.n, nodes, offsets, np.zeros(theta), retire=True).select(k)


def expected_influence_spread(
    spark: SparkSession,
    graph: OpinionGraph,
    model: str,
    seeds,
    *,
    theta: int = 20000,
    seed: int = 7,
) -> float:
    """EIS(S) ≈ n/θ · #{RR sets intersecting S} (§VIII-C)."""
    rr = generate_rr_sets(spark, graph, model, theta, seed=seed)
    _, nodes, offsets = collect_sketches(rr, "sketch_id", "nodes")
    in_s = np.zeros(graph.n, dtype=bool)
    in_s[np.asarray(list(seeds), dtype=np.int64)] = True
    set_of = np.repeat(np.arange(theta), np.diff(offsets))
    hit = len(np.unique(set_of[in_s[nodes]]))
    return graph.n * hit / float(theta)
