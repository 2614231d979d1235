"""IC/LT influence-maximization baselines via RR-set sketches (paper §VIII-A).

The paper compares against seed selection under the Independent Cascade
and Linear Threshold diffusion models, each coupled with IMM [3].  We
implement the reverse-reachable (RR) set machinery:

* An RR set from a uniformly random root is its reverse reach in a
  live-edge graph (Kempe, Kleinberg & Tardos, KDD 2003).  IC keeps each
  in-edge (u → v) with probability w_uv (a coin per edge slot): the set is
  the shared frontier BFS ``graphs.graph.reach`` over the reverse CSR,
  unbounded in hops, with a per-set ``live`` rule.  LT keeps exactly one
  in-edge per node, drawn by weight (in-weights sum to 1), so the set is a
  reverse random walk that stops before its first revisit (``_lt_sets``,
  which draws as ``opinion.walks.reverse_walks`` does).  (Our graphs carry
  a self-loop on in-degree-0 nodes, which simply ends the walk.)  Sets
  come out ascending.
* Generation: ``rr_sets`` builds a batch of sets, all of them expanding
  or walking at once; every coin is keyed by (seed, set id, …) as in
  ``opinion.walks``, so set ``i`` is the same on the driver and in any
  Spark partition.  ``rr_sketches`` gets the sets from
  ``opinion.walks.sketches``: up to ``RR_DRIVER_MAX`` sets the driver runs
  the kernel and no Spark session is needed; above it one ``mapInArrow``
  job makes and collects them, in the session ``opinion.walks`` gets.
  ``generate_rr_sets`` builds that job's DataFrame alone.  This module
  neither imports Spark nor takes a session: the leading ``spark``
  argument of ``generate_rr_sets`` and ``select_seeds_im`` is perfbench's
  and ignored.
* Seed selection: greedy max-coverage over θ_im RR sets, made once in id
  order (``rr_sketches``) and run by the shared, resumable
  sketch greedy (``core.sketch``): with every RR set's ``op`` at 0, a node's
  cumulative gain is the number of uncovered RR sets containing it, and a
  pick retires the sets it covers.

Substitution vs the paper (DESIGN.md §3): IMM's adaptive martingale
stopping rule is replaced by a fixed, generous θ_im; at our scale the
selected seeds coincide with IMM's with high probability.
"""
from __future__ import annotations

import numpy as np

from repro.core.sketch import SketchSet
from repro.graphs import graph as graph_mod
from repro.graphs.graph import AliasTable, OpinionGraph, reach
from repro.opinion.walks import (
    ACCEPT,
    COIN,
    SLOT,
    map_id_range,
    sketches,
    stream_keys,
    uniform_nodes,
    uniforms,
)

RR_COLUMNS = ("sketch_id", "nodes")
# Up to this many RR sets are generated on the driver, more in one Spark
# job.  At 2^16 sets the driver won for IC and LT on both graphs timed
# (yelp-lite LT 0.33 s against 0.52 s, IC 0.34 against 0.44 s).  Spark
# first won at 2^17, on yelp-lite (IC 0.68 against 0.64 s, LT 0.70 against
# 0.64 s); on twitter-sd-lite the driver still won there
# (BENCH_efficiency.json, the b5aa1af entry, test_generation_time, medians
# of 5 runs; 4 cores, local[4]).
RR_DRIVER_MAX = 1 << 16


def rr_sets(
    alias: AliasTable, w: np.ndarray, model: str, seed: int, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """RR sets ``ids`` of ``model`` as flat sorted ``(nodes, offsets)``.

    Set ``ids[j]`` is ``nodes[offsets[j]:offsets[j + 1]]``, ascending; its
    root, drawn uniformly from the reserved start lane, is always in it.
    ``w`` is the edge weight in reverse-CSR (dst-sorted) order.
    """
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown IM model: {model}")
    n = len(alias.indptr) - 1
    keys = stream_keys(seed, ids)
    if model == "lt":
        return _lt_sets(alias, keys, n)

    def ic(rows, slot):
        # The coin of reverse-CSR edge slot e in set j is uniform (e, COIN)
        # of the set's stream, so the set does not depend on visiting order.
        return uniforms(keys[rows], slot, COIN) < w[slot]

    return reach(alias.indptr, alias.indices, uniform_nodes(keys, n), n, live=ic)


def _lt_sets(alias: AliasTable, keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The LT RR sets of stream ``keys``, as ``rr_sets`` returns them.

    Each set is a reverse walk from its drawn root: step s draws an
    in-neighbor of the walk's s-th node on lanes ``SLOT``/``ACCEPT`` at
    step s, and the walk stops when the draw is already in the set.  All
    walks of a chunk step together over a (sets × n) ``seen`` mask of
    ``graphs.graph._EXPAND_BUDGET`` entries; the sets are read off their
    sorted ``set·n + node`` keys.
    """
    size = max(1, graph_mod._EXPAND_BUDGET // n)
    found = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(keys), size):
        k = keys[lo : lo + size]
        seen = np.zeros(len(k) * n, dtype=bool)
        rows, cur = np.arange(len(k)), uniform_nodes(k, n)
        for step in range(n):
            key = rows * n + cur
            seen[key] = True
            found.append(lo * n + key)
            cur = alias.sample(cur, uniforms(k, step, SLOT), uniforms(k, step, ACCEPT))
            new = ~seen[rows * n + cur]
            rows, cur, k = rows[new], cur[new], k[new]
            if not len(rows):
                break
    rows, nodes = np.divmod(np.sort(np.concatenate(found)), n)
    return nodes.astype(np.int32), graph_mod._indptr(rows, len(keys))


def _rr_kernel(graph: OpinionGraph, model: str, seed: int):
    """The ``rr_sets`` kernel of ``generate_rr_sets`` and ``rr_sketches``."""
    if model not in ("ic", "lt"):
        raise ValueError(f"unknown IM model: {model}")
    alias, w = graph.reverse_alias(), graph.w

    def kernel(ids):
        return rr_sets(alias, w, model, seed, ids)

    return kernel


def generate_rr_sets(
    spark,
    graph: OpinionGraph,
    model: str,
    theta: int,
    *,
    seed: int = 0,
):
    """θ RR sets as a DataFrame ``(sketch_id, nodes)``: set ``i`` is
    ``rr_sets`` at id ``i``, whatever the partitioning."""
    return map_id_range(theta, _rr_kernel(graph, model, seed), RR_COLUMNS)


def rr_sketches(
    graph: OpinionGraph,
    model: str,
    theta: int,
    *,
    seed: int = 0,
) -> SketchSet:
    """θ RR sets, made once, as a max-coverage ``SketchSet``: on the driver
    up to ``RR_DRIVER_MAX`` sets, in one Spark job above it.

    Its ``select(k)`` is the IMM-lite greedy, resumable like RW's and RS's.
    """
    kernel = _rr_kernel(graph, model, seed)
    nodes, offsets = sketches(theta, kernel, RR_COLUMNS, RR_DRIVER_MAX)
    return SketchSet(graph.n, nodes, offsets, np.zeros(theta), retire=True)


def select_seeds_im(
    spark,
    graph: OpinionGraph,
    model: str,
    k: int,
    *,
    theta: int = 20000,
    seed: int = 0,
) -> list[int]:
    """Greedy max-coverage over RR sets (IMM-lite seed selection)."""
    return rr_sketches(graph, model, theta, seed=seed).select(k)
