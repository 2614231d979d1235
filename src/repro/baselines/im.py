"""IC/LT influence-maximization baselines via RR-set sketches (paper §VIII-A).

The paper compares against seed selection under the Independent Cascade
and Linear Threshold diffusion models, each coupled with IMM [3].  We
implement the reverse-reachable (RR) set machinery:

* IC RR set from a uniformly random root: randomized reverse BFS — each
  incoming edge (u → v) is live with probability w_uv.
* LT RR set: a reverse path — at each node pick exactly one in-neighbor
  with probability equal to its edge weight (in-weights sum to 1), stop on
  a revisit.  (Our graphs carry a self-loop on in-degree-0 nodes, which
  simply ends the path.)
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

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.core.sketch import SketchSet, collect_sketches
from repro.graphs.graph import OpinionGraph

_RR_SCHEMA = T.StructType(
    [
        T.StructField("sketch_id", T.LongType()),
        T.StructField("nodes", T.ArrayType(T.IntegerType())),
    ]
)


def rr_sets_np(
    graph: OpinionGraph, model: str, roots: np.ndarray, rng: np.random.Generator
) -> list[list[int]]:
    """RR sets for the given roots (reference kernel, also used per-partition)."""
    alias = graph.reverse_alias()
    indptr, indices, wts = alias.indptr, alias.indices, graph.w
    out: list[list[int]] = []
    for root in roots:
        if model == "ic":
            visited = {int(root)}
            frontier = [int(root)]
            while frontier:
                nxt: list[int] = []
                for v in frontier:
                    lo, hi = indptr[v], indptr[v + 1]
                    live = rng.random(hi - lo) < wts[lo:hi]
                    for u in indices[lo:hi][live]:
                        if int(u) not in visited:
                            visited.add(int(u))
                            nxt.append(int(u))
                frontier = nxt
            out.append(sorted(visited))
        elif model == "lt":
            visited = {int(root)}
            cur = int(root)
            while True:
                nxt = int(alias.sample(np.array([cur]), rng)[0])
                if nxt in visited:
                    break
                visited.add(nxt)
                cur = nxt
            out.append(sorted(visited))
        else:
            raise ValueError(f"unknown IM model: {model}")
    return out


def generate_rr_sets(
    spark: SparkSession,
    graph: OpinionGraph,
    model: str,
    theta: int,
    *,
    seed: int = 0,
) -> DataFrame:
    """θ RR sets as a DataFrame (sketch_id, nodes) — broadcast graph,
    distributed roots, per-partition vectorized kernel."""
    rng0 = np.random.default_rng(seed)
    roots = rng0.integers(0, graph.n, size=theta)
    bc = spark.sparkContext.broadcast(graph)
    work = spark.createDataFrame(
        pd.DataFrame({"sketch_id": np.arange(theta, dtype=np.int64), "root": roots})
    ).repartition(min(spark.sparkContext.defaultParallelism * 2, max(1, theta // 512)))

    def gen(pdfs: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        g = bc.value
        for pdf in pdfs:
            if len(pdf) == 0:
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, int(pdf["sketch_id"].iloc[0])])
            )
            sets = rr_sets_np(g, model, pdf["root"].to_numpy(), rng)
            yield pd.DataFrame(
                {"sketch_id": pdf["sketch_id"].to_numpy(), "nodes": sets}
            )

    return work.mapInPandas(gen, _RR_SCHEMA)


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
