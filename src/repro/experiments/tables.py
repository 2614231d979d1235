"""Harnesses that print each evaluation table's rows (see DESIGN.md §5).

Every function returns a pandas DataFrame with the same row structure as
the corresponding paper table so EXPERIMENTS.md can diff paper numbers
against ours.  Heavy lifting is delegated to the selectors/baselines;
this module only orchestrates and formats.  No harness takes a Spark
session: the leading ``spark`` placeholder of ``ExactEvaluator`` and the
centrality baselines gets ``None``.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
import pandas as pd

from repro.baselines.centrality import degree_seeds, pagerank_seeds, rwr_seeds
from repro.baselines.im import rr_sketches
from repro.core.dm import ExactEvaluator, greedy_picks
from repro.core.sketch import SketchSelector
from repro.core.win import min_seeds_to_win
from repro.experiments.casestudy import run_case_study
from repro.experiments.datasets import table3_rows
from repro.graphs.generators import running_example
from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import opinions_at_horizon_np, unseeded_horizon_np
from repro.voting.scores import score_np


# --------------------------------------------------------------------- #
# Table I
# --------------------------------------------------------------------- #
def table1() -> pd.DataFrame:
    """Running-example scores for the paper's six seed sets at t=1."""
    g = running_example()
    rows = []
    for S in [(), (0,), (1,), (2,), (3,), (0, 1)]:
        b = opinions_at_horizon_np(g, 1, 0, S)
        rows.append(
            {
                "seed_set": "{" + ", ".join(str(s + 1) for s in S) + "}",
                **{f"user{i+1}": round(float(b[0, i]), 2) for i in range(4)},
                "cumulative": round(score_np(b, 0, "cumulative"), 2),
                "plurality": int(score_np(b, 0, "plurality")),
                "copeland": int(score_np(b, 0, "copeland")),
            }
        )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------- #
# Table III
# --------------------------------------------------------------------- #
def table3() -> pd.DataFrame:
    return pd.DataFrame(table3_rows())


# --------------------------------------------------------------------- #
# Table IV
# --------------------------------------------------------------------- #
def table4(**kw) -> tuple[pd.DataFrame, dict]:
    res = run_case_study(**kw)
    return pd.DataFrame(res["rows"]), res


# --------------------------------------------------------------------- #
# Method comparison (Figures 6–8 rendered as a table)
# --------------------------------------------------------------------- #
METHODS = ("DM", "RW", "RS", "IC", "LT", "GED-T", "PR", "RWR", "DC")


def method_selector(
    graph: OpinionGraph,
    method: str,
    target: int,
    t: int,
    score: str,
    *,
    lam: int = 40,
    theta: int | None = None,
    im_theta: int = 8000,
    seed: int = 0,
) -> Callable[[int], list[int]]:
    """One §VIII-A seed-selection method as a resumable ``select(k)``.

    ``select(k)`` returns the first k seeds of the method's sequence: a
    later call with a larger k extends it, a smaller k returns its prefix.
    It raises ``ValueError`` unless 0 ≤ k ≤ n.  RS's θ defaults to
    max(1024, n // 2).  No method needs a Spark session unless IC/LT's
    ``im_theta`` exceeds ``baselines.im.RR_DRIVER_MAX``.
    """
    if method in ("DM", "GED-T"):
        # GED-T is Gionis et al. [25] adapted to horizon t (§VIII-A): the exact
        # greedy on the cumulative objective whatever the score.  The paper's
        # GED-T scores every candidate each round; CELF picks the same seeds.
        objective = score if method == "DM" else "cumulative"
        ev = ExactEvaluator(None, graph, target, t, objective)
        picks = greedy_picks(ev, celf=objective == "cumulative")
        seq: list[int] = []

        def select(k: int) -> list[int]:
            if not 0 <= k <= graph.n:
                raise ValueError(f"cannot select k={k} seeds from {graph.n} nodes")
            while len(seq) < k:
                seq.append(next(picks)[0])
            return seq[:k]

        return select
    if method == "RW":
        return SketchSelector(graph, target, t, score, lam=lam, seed=seed).select
    if method == "RS":
        th = max(1024, graph.n // 2) if theta is None else theta
        return SketchSelector(graph, target, t, score, theta=th, seed=seed).select
    if method in ("IC", "LT"):
        return rr_sketches(graph, method.lower(), im_theta, seed=seed).select
    if method == "PR":
        return lambda k: pagerank_seeds(graph, k)
    if method == "RWR":
        return lambda k: rwr_seeds(None, graph, k, target)
    if method == "DC":
        return lambda k: degree_seeds(None, graph, k)
    raise ValueError(f"unknown method: {method}")


def scores_comparison(
    graph: OpinionGraph,
    target: int,
    t: int,
    ks: list[int],
    scores: list[str],
    *,
    methods: tuple[str, ...] = METHODS,
    lam: int = 40,
    theta: int | None = None,
    im_theta: int = 8000,
    seed: int = 0,
) -> pd.DataFrame:
    """Every (score, method, k): exact evaluation score + selection time.

    Mirrors the evaluation protocol of §VIII-C: all methods differ only
    in seed selection; the selected seeds are always evaluated with the
    exact FJ diffusion and the exact voting score (``score_of``).  Only DM,
    RW and RS read the score; every other method selects once per table,
    and its rows for each score report that one selection's time.
    """
    rows, picked = [], {}
    for score in scores:
        ev = ExactEvaluator(None, graph, target, t, score)
        for method in methods:
            key = (method, score if method in ("DM", "RW", "RS") else None)
            if key not in picked:
                start = time.perf_counter()
                seeds = method_selector(
                    graph, method, target, t, score,
                    lam=lam, theta=theta, im_theta=im_theta, seed=seed,
                )(max(ks))
                picked[key] = seeds, round(time.perf_counter() - start, 2)
            seeds, elapsed = picked[key]
            rows += [
                {"score": score, "method": method, "k": k,
                 "F": ev.score_of(seeds[:k]), "select_time_s": elapsed}
                for k in ks
            ]
    return pd.DataFrame(rows)


# --------------------------------------------------------------------- #
# Table VI
# --------------------------------------------------------------------- #
def table6(
    graph: OpinionGraph,
    target: int,
    t: int,
    score: str,
    *,
    k_max: int,
    lam: int = 40,
    theta: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Min #seeds for the target to win, per proposed method (DM/RW/RS).

    Each method's resumable ``select(k)`` is scanned k = 0, 1, …, ``k_max``
    for the shortest winning prefix (``core.win.min_seeds_to_win``): one
    sequence, extended a seed at a time, each prefix checked with exact
    opinions (Alg. 2 line 5).
    """
    rows = []
    for method in ("DM", "RW", "RS"):
        select = method_selector(
            graph, method, target, t, score, lam=lam, theta=theta, seed=seed
        )
        kstar = min_seeds_to_win(graph, target, t, score, select, k_max)
        rows.append(
            {
                "method": method,
                "k_star": kstar if kstar is not None else np.nan,
                "win_within_budget": kstar is not None,
            }
        )
    return pd.DataFrame(rows)


def trailing_candidate(graph: OpinionGraph, t: int, score: str) -> int:
    """The candidate with the lowest score at the horizon (no seeds).

    Table VI's premise is a target that is *losing* (the paper's targets —
    Democratic Party, For-Mask, … — trail initially); our symmetric
    synthetic candidates may not, so the harness targets the trailing one.
    """
    b = unseeded_horizon_np(graph, t)  # kept for the evaluators that follow
    vals = [score_np(b, q, score) for q in range(graph.r)]
    return int(np.argmin(vals))
