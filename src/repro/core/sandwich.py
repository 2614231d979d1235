"""Sandwich approximation for the non-submodular scores (paper §IV).

For the plurality variants (positional-p-approval and special cases):

* LB(S) = ω[p] · Σ_{v ∈ V_q^(t)} b_qv^(t)[S]   (Def. 3) — a cumulative
  score restricted to the favorable users set; submodular, so greedy via
  the exact evaluator with a user mask.
* UB(S) = ω[1] · |N_S^(t) ∪ V_q^(t)|           (Def. 4) — a coverage
  function over t-hop forward-reachable sets; maximized by greedy
  max-coverage on the shared sketch engine (``core.sketch``).

For Copeland:

* UB(S) = (r−1)/(⌊n/2⌋+1) · |N_S^(t) ∪ U_q^(t)| (Def. 6) with the weakly
  favorable users set U_q^(t) (Def. 5).

Algorithm 3 then returns argmax_F over {S_U, S_L, S_F}; the empirical
quality ratio F(S_U)/UB(S_U) (§IV-D) is reported alongside.

Reachable sets for the coverage greedy come from `reach_sets_np`, the
vectorized forward expansion over the graph's cached forward CSR that the
exact evaluator's reach-local kernel also runs (`graphs.graph.forward_reach`).
The DuckDB oracle tests check it against t-hop reachability written as a
recursive CTE.  Everything here runs on the driver; the leading ``spark``
argument of ``sandwich_select`` is unused, as in ``core.dm``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.sketch import SketchSet
from repro.graphs.graph import OpinionGraph, forward_reach
from repro.opinion.fj import fj_diffuse_np
from repro.voting.scores import rank


# --------------------------------------------------------------------- #
# Favorable / weakly favorable users (Defs. 1 and 5)
# --------------------------------------------------------------------- #
def favorable_users_np(graph: OpinionGraph, target: int, t: int, p: int) -> np.ndarray:
    """Boolean mask of V_q^(t): β(b_qv^(t)) ≤ p without any target seeds."""
    b = fj_diffuse_np(graph, t)
    return rank(b[target], np.delete(b, target, axis=0)) <= p


def weakly_favorable_users_np(graph: OpinionGraph, target: int, t: int) -> np.ndarray:
    """Boolean mask of U_q^(t): b_qv^(t) > min over other candidates.

    With no other candidate (r = 1) the minimum is +inf, so U_q^(t) is empty.
    """
    b = fj_diffuse_np(graph, t)
    others = np.delete(b, target, axis=0)
    return b[target] > others.min(axis=0, initial=np.inf)


# --------------------------------------------------------------------- #
# Reachable sets (Def. 2)
# --------------------------------------------------------------------- #
def reach_sets_np(graph: OpinionGraph, t: int) -> np.ndarray:
    """(n, n) bool: row v is the mask of N_{v}^(t) (≤ t forward hops).

    The node itself is included (h = 0 in Eq. 22).
    """
    return forward_reach(graph, np.arange(graph.n), t)


# --------------------------------------------------------------------- #
# Coverage greedy for the UB functions
# --------------------------------------------------------------------- #
def greedy_coverage(
    reach: np.ndarray, base_mask: np.ndarray, k: int
) -> tuple[list[int], int]:
    """Greedy max-coverage of |N_S ∪ base| (UB maximization).

    Returns (seeds, |N_S^(t) ∪ base| for the final S).  Runs the shared
    sketch greedy (``core.sketch``) with one set per user outside ``base``
    — the nodes whose reachable set covers it — so a node's gain is the
    number of still-uncovered users it reaches.
    """
    covers = reach[:, ~base_mask].T  # (uncovered users, n)
    _, nodes = np.nonzero(covers)
    offsets = np.concatenate([[0], np.cumsum(covers.sum(axis=1))])
    sketches = SketchSet(len(reach), nodes, offsets, np.zeros(len(covers)), retire=True)
    seeds = sketches.select(k)
    return seeds, int(ub_value(reach, base_mask, seeds, 1.0))


# --------------------------------------------------------------------- #
# Bound values
# --------------------------------------------------------------------- #
def ub_value(
    reach: np.ndarray, base_mask: np.ndarray, seeds, coeff: float
) -> float:
    """UB(S) per Defs. 4/6: coeff · |N_S^(t) ∪ base|."""
    covered = base_mask | reach[list(seeds)].any(axis=0)
    return coeff * float(covered.sum())


@dataclass
class SandwichResult:
    seeds: list[int]  # the returned S#
    source: str  # which of S_U / S_L / S_F won
    f_su: float  # exact F(S_U)
    f_sl: float | None  # exact F(S_L) (None for Copeland: no LB)
    f_sf: float  # exact F(S_F)
    ratio: float  # F(S_U)/UB(S_U) — the §IV-D empirical factor


def sandwich_select(
    spark,
    graph: OpinionGraph,
    target: int,
    t: int,
    k: int,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
    selector=None,
) -> SandwichResult:
    """Algorithm 3 for the plurality variants and the Copeland score.

    ``selector(k) -> seeds`` supplies S_F (defaults to exact greedy);
    S_L / S_U come from greedy on the bound functions.  All three are
    compared under the *exact* F.
    """
    if score == "cumulative":
        raise ValueError("cumulative is submodular — no sandwich needed")
    omega_arr = np.ones(graph.r) if omega is None else np.asarray(omega)
    pp = 1 if score == "plurality" else p

    reach = reach_sets_np(graph, t)
    if score == "copeland":
        base = weakly_favorable_users_np(graph, target, t)
        coeff = (graph.r - 1) / (graph.n // 2 + 1)
        fav = None
    else:
        base = favorable_users_np(graph, target, t, pp)
        coeff = float(omega_arr[0])
        fav = base

    # S_U: greedy max-coverage on UB.
    s_u, _ = greedy_coverage(reach, base, k)

    # S_L: greedy on the masked cumulative LB (plurality variants only).
    s_l = None
    if score != "copeland":
        ev_lb = ExactEvaluator(
            spark, graph, target, t, "cumulative", user_mask=fav
        )
        s_l, _ = greedy_dm(ev_lb, k, celf=True)

    # S_F: feasible greedy on F itself; the same evaluator scores all three.
    ev_f = ExactEvaluator(spark, graph, target, t, score, p=pp, omega=omega_arr)
    if selector is not None:
        s_f = selector(k)
    else:
        s_f, _ = greedy_dm(ev_f, k, celf=False)

    f_su = ev_f.score_of(s_u)
    f_sf = ev_f.score_of(s_f)
    f_sl = ev_f.score_of(s_l) if s_l is not None else None

    options = {"S_U": (s_u, f_su), "S_F": (s_f, f_sf)}
    if s_l is not None:
        options["S_L"] = (s_l, f_sl)
    source = max(options, key=lambda nm: options[nm][1])
    ub_su = ub_value(reach, base, s_u, coeff)
    return SandwichResult(
        seeds=options[source][0],
        source=source,
        f_su=f_su,
        f_sl=f_sl,
        f_sf=f_sf,
        ratio=f_su / ub_su if ub_su > 0 else 1.0,
    )
