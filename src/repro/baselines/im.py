"""IC/LT influence-maximization baselines via RR-set sketches (paper §VIII-A).

The paper compares against seed selection under the Independent Cascade
and Linear Threshold diffusion models, each coupled with IMM [3].  We
implement the reverse-reachable (RR) set machinery:

* An RR set from a uniformly random root is its reverse reach in a
  live-edge graph (Kempe, Kleinberg & Tardos, KDD 2003): the shared
  frontier BFS ``graphs.graph.reach`` over the reverse CSR, unbounded in
  hops, with a per-set ``live`` rule.  IC keeps each in-edge (u → v) with
  probability w_uv (a coin per edge slot).  LT keeps exactly one in-edge
  per node, drawn by weight (in-weights sum to 1), so the set is a reverse
  path that stops before its first revisit.  (Our graphs carry a self-loop
  on in-degree-0 nodes, which simply ends the path.)  Sets come out
  ascending.
* Generation: ``rr_sets`` builds a batch of sets by frontier expansion
  over all of them at once; every coin is keyed by (seed, set id, …) as
  in ``opinion.walks``, so set ``i`` is the same on the driver and in any
  Spark partition.  ``rr_sketches`` gets the sets from
  ``opinion.walks.sketches``: up to ``RR_DRIVER_MAX`` sets the driver runs
  the kernel and no Spark job starts; above it one ``mapInArrow`` job
  makes and collects them.  ``generate_rr_sets`` builds that job's
  DataFrame alone.  This module does not import Spark.
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
# job.  Spark first won at 2^16 sets, with LT on yelp-lite (0.83 s on the
# driver against 0.57 s), and at 2^17-2^18 for the other kinds and graphs;
# at 2^15 the driver won everywhere (yelp LT 0.37 against 0.43 s)
# (BENCH_efficiency.json, the 4b78c8d entry, test_generation_time; 4 cores,
# local[4]).
RR_DRIVER_MAX = 1 << 15


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

    def ic(rows, slot, hop):
        # The coin of reverse-CSR edge slot e in set j is uniform (e, COIN)
        # of the set's stream, so the set does not depend on visiting order.
        return uniforms(keys[rows], slot, COIN) < w[slot]

    def lt(rows, slot, hop):
        # An LT set's frontier is one node, so its in-edges are one run of
        # ``rows``; the set keeps the slot its alias draw at step = hop picks.
        run = np.flatnonzero(np.diff(rows, prepend=-1))
        node = np.searchsorted(alias.indptr, slot[run], side="right") - 1
        k = keys[rows[run]]
        pick = alias.draw(node, uniforms(k, hop, SLOT), uniforms(k, hop, ACCEPT))
        return slot == np.repeat(pick, np.diff(run, append=len(rows)))

    live = ic if model == "ic" else lt
    return reach(alias.indptr, alias.indices, uniform_nodes(keys, n), n, live=live)


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
    return map_id_range(spark, theta, _rr_kernel(graph, model, seed), RR_COLUMNS)


def rr_sketches(
    spark,
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
    nodes, offsets = sketches(spark, theta, kernel, RR_COLUMNS, RR_DRIVER_MAX)
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
    return rr_sketches(spark, graph, model, theta, seed=seed).select(k)
