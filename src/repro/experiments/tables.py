"""Harnesses that print each evaluation table's rows (see DESIGN.md §5).

Every function returns a pandas DataFrame with the same row structure as
the corresponding paper table so EXPERIMENTS.md can diff paper numbers
against ours.  Heavy lifting is delegated to the selectors/baselines;
this module only orchestrates and formats.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.baselines.centrality import degree_seeds, pagerank_seeds, rwr_seeds
from repro.baselines.ged_t import ged_t_seeds
from repro.baselines.im import select_seeds_im
from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.rs import RSSelector
from repro.core.rw import RWSelector
from repro.core.win import min_seeds_to_win_fast
from repro.experiments.casestudy import run_case_study
from repro.experiments.datasets import table3_rows
from repro.graphs.generators import running_example
from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import opinions_at_horizon_np
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
def table4(spark, **kw) -> tuple[pd.DataFrame, dict]:
    res = run_case_study(spark, **kw)
    return pd.DataFrame(res["rows"]), res


# --------------------------------------------------------------------- #
# Method comparison (Figures 6–8 rendered as a table)
# --------------------------------------------------------------------- #
METHODS = ("DM", "RW", "RS", "IC", "LT", "GED-T", "PR", "RWR", "DC")


def rs_theta(graph: OpinionGraph, theta: int | None) -> int:
    """The RS sketch budget: ``theta`` if given, else max(1024, n // 2)."""
    return theta or max(1024, graph.n // 2)


def select_with_method(
    spark,
    graph: OpinionGraph,
    method: str,
    target: int,
    t: int,
    k: int,
    score: str,
    *,
    lam: int = 40,
    theta: int | None = None,
    im_theta: int = 8000,
    seed: int = 0,
) -> list[int]:
    """Dispatch one seed-selection method (paper §VIII-A list)."""
    if method == "DM":
        ev = ExactEvaluator(spark, graph, target, t, score)
        seeds, _ = greedy_dm(ev, k, celf=(score == "cumulative"))
        return seeds
    if method == "RW":
        sel = RWSelector(spark, graph, target, t, score, lam=lam, seed=seed)
        try:
            return sel.select(k)
        finally:
            sel.close()
    if method == "RS":
        th = rs_theta(graph, theta)
        sel = RSSelector(spark, graph, target, t, score, theta=th, seed=seed)
        try:
            return sel.select(k)
        finally:
            sel.close()
    if method == "IC":
        return select_seeds_im(spark, graph, "ic", k, theta=im_theta, seed=seed)
    if method == "LT":
        return select_seeds_im(spark, graph, "lt", k, theta=im_theta, seed=seed)
    if method == "GED-T":
        return ged_t_seeds(spark, graph, target, t, k)
    if method == "PR":
        return pagerank_seeds(spark, graph, k)
    if method == "RWR":
        return rwr_seeds(spark, graph, k, target)
    if method == "DC":
        return degree_seeds(spark, graph, k)
    raise ValueError(f"unknown method: {method}")


def scores_comparison(
    spark,
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
    exact FJ diffusion and the exact voting score.
    """
    rows = []
    kmax = max(ks)
    for score in scores:
        for method in methods:
            start = time.perf_counter()
            seeds = select_with_method(
                spark, graph, method, target, t, kmax, score,
                lam=lam, theta=theta, im_theta=im_theta, seed=seed,
            )
            elapsed = time.perf_counter() - start
            for k in ks:
                b = opinions_at_horizon_np(graph, t, target, seeds[:k])
                rows.append(
                    {
                        "score": score,
                        "method": method,
                        "k": k,
                        "F": score_np(b, target, score),
                        "select_time_s": round(elapsed, 2),
                    }
                )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------- #
# Table VI
# --------------------------------------------------------------------- #
def table6(
    spark,
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

    Uses the greedy-prefix fast path (see ``core.win``): each method's
    greedy sequence is *extended by doubling* (selectors are resumable)
    until the target wins or ``k_max`` is hit, then the shortest winning
    prefix is located; win checks use exact opinions (Alg. 2 line 5).
    """
    from repro.core.win import target_wins

    rw_sel = RWSelector(spark, graph, target, t, score, lam=lam, seed=seed)
    th = rs_theta(graph, theta)
    rs_sel = RSSelector(spark, graph, target, t, score, theta=th, seed=seed)
    ev = ExactEvaluator(spark, graph, target, t, score)
    dm_state: list[int] = []

    def dm_extend(k: int) -> list[int]:
        nonlocal dm_state
        dm_state, _ = greedy_dm(ev, k, celf=False, init=dm_state)
        return list(dm_state)

    extenders = {"DM": dm_extend, "RW": rw_sel.select, "RS": rs_sel.select}
    rows = []
    for method, extend in extenders.items():
        k = min(16, k_max)
        seq = extend(k)
        while not target_wins(graph, target, t, seq, score) and k < k_max:
            k = min(k * 2, k_max)
            seq = extend(k)
        kstar, _ = min_seeds_to_win_fast(graph, target, t, score, seq)
        rows.append(
            {
                "method": method,
                "k_star": kstar if kstar is not None else np.nan,
                "win_within_budget": kstar is not None,
            }
        )
    rw_sel.close()
    rs_sel.close()
    return pd.DataFrame(rows)


def trailing_candidate(graph: OpinionGraph, t: int, score: str) -> int:
    """The candidate with the lowest score at the horizon (no seeds).

    Table VI's premise is a target that is *losing* (the paper's targets —
    Democratic Party, For-Mask, … — trail initially); our symmetric
    synthetic candidates may not, so the harness targets the trailing one.
    """
    from repro.opinion.fj import fj_diffuse_np

    b = fj_diffuse_np(graph, t)
    vals = [score_np(b, q, score) for q in range(graph.r)]
    return int(np.argmin(vals))
