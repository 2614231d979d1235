"""Walk/sketch budgets with quality guarantees (paper §V-C, §VI).

* ``lambda_cumulative`` — Thm 10: λ ≥ ln(2/(1−ρ)) / (2δ²) gives
  |b̂ − b| < δ w.p. ≥ ρ.
* ``lambda_rank`` — Thm 11 (plurality variants): λ ≥ ln(2/(1−ρ)) / (2γ²)
  preserves the user's rank contribution w.p. ≥ ρ.
* ``lambda_copeland`` — Thm 12: λ ≥ ln(1/(1−ρ)) / (2γ²).
* ``estimate_gamma`` — the §V-C greedy heuristic for γ* = min_S γ_v[S].
* ``theta_cumulative`` — Thm 13 sketch count (Eq. 40) given a lower
  bound on OPT.
* ``opt_lower_bound`` — any feasible seed set's exact score lower-bounds
  OPT; we probe with the top-k out-degree set (substitutes the paper's
  hypothesis-test search from [3]; conservative, see DESIGN.md §3).
* ``heuristic_theta`` — §VI-E: double θ until the estimated score
  converges.
"""
from __future__ import annotations

import math

import numpy as np

from repro.baselines.centrality import degree_seeds
from repro.graphs.graph import OpinionGraph
from repro.opinion.fj import fj_diffuse_np
from repro.voting.scores import score_np


def lambda_cumulative(delta: float, rho: float) -> int:
    """Thm 10 walk count per node for the cumulative score."""
    if not (0 < rho < 1) or delta <= 0:
        raise ValueError("need 0<rho<1 and delta>0")
    return math.ceil(math.log(2.0 / (1.0 - rho)) / (2.0 * delta * delta))


def lambda_rank(gamma: float, rho: float) -> int:
    """Thm 11 walk count per node for the plurality score variants."""
    if not (0 < rho < 1) or gamma <= 0:
        raise ValueError("need 0<rho<1 and gamma>0")
    return math.ceil(math.log(2.0 / (1.0 - rho)) / (2.0 * gamma * gamma))


def lambda_copeland(gamma: float, rho: float) -> int:
    """Thm 12 walk count per node for the Copeland score."""
    if not (0 < rho < 1) or gamma <= 0:
        raise ValueError("need 0<rho<1 and gamma>0")
    return math.ceil(math.log(1.0 / (1.0 - rho)) / (2.0 * gamma * gamma))


def estimate_gamma(
    graph: OpinionGraph,
    target: int,
    t: int,
    k: int,
    *,
    gamma_floor: float = 0.02,
) -> float:
    """Heuristic γ̂* ≈ min_{|S|≤k} min_v min_{c_p≠q} |b_pv − b_qv[S]| (§V-C).

    Starting from S=∅ we repeatedly add the node that minimizes the new
    γ̂[S] computed from exact opinions (our instances are small enough to
    use exact values where the paper uses α-walk estimates), stopping when
    |S| = k or γ̂ stops decreasing.  Floored at ``gamma_floor`` so the
    implied λ stays finite — ties (γ = 0) void the guarantee anyway
    (Thm 11's assumption γ ≠ 0).
    """
    b = fj_diffuse_np(graph, t)
    others = np.delete(b, target, axis=0)

    def gamma_of(bq: np.ndarray) -> tuple[float, int]:
        gap = np.abs(others - bq[None, :]).min(axis=0)
        v = int(np.argmin(gap))
        return float(gap[v]), v

    seeds: list[int] = []
    bq = b[target]
    best, _ = gamma_of(bq)
    for _ in range(k):
        # Greedily add the node whose seeding most reduces the minimum gap;
        # the arg-min-gap node itself is the natural candidate (its gap is
        # driven to |b_p − 1|, and its out-neighborhood shifts).
        _, v = gamma_of(bq)
        if v in seeds:
            break
        seeds.append(v)
        g = graph.with_seeds(target, seeds)
        bq = fj_diffuse_np(g, t, cand=target)
        new, _ = gamma_of(bq)
        if new >= best:
            break
        best = new
    return max(best, gamma_floor)


def opt_lower_bound(
    graph: OpinionGraph, target: int, t: int, k: int, score: str, **score_kw
) -> float:
    """A valid lower bound on OPT: the exact score of a feasible probe set.

    Probe = the DC baseline's top-k out-degree nodes (``degree_seeds``:
    cheap, deterministic, ties to the smallest id).  Any feasible set's
    score ≤ OPT, so this is always sound; for cumulative it is also ≥ k
    (each seed contributes its own opinion of 1).
    """
    probe = degree_seeds(None, graph, k)
    b = fj_diffuse_np(graph.with_seeds(target, probe), t)
    val = score_np(b, target, score, **score_kw)
    if score == "cumulative":
        val = max(val, float(k))
    return val


def theta_cumulative(
    n: int, k: int, opt_lb: float, *, eps: float = 0.1, ell: float = 1.0
) -> int:
    """Thm 13 (Eq. 40) sketch count for the cumulative score."""
    if opt_lb <= 0:
        raise ValueError("need a positive OPT lower bound")
    e_term = 1.0 - 1.0 / math.e
    ln_2nl = math.log(2.0) + ell * math.log(max(n, 2))
    ln_nck = k * math.log(max(n, 2))  # ln C(n,k) ≤ k ln n
    num = (e_term * math.sqrt(ln_2nl) + math.sqrt(e_term * (ln_2nl + ln_nck))) ** 2
    return math.ceil(2.0 * n * num / (opt_lb * eps * eps))


def heuristic_theta(
    estimate_fn,
    *,
    theta0: int = 1 << 8,
    theta_max: int = 1 << 20,
    tol: float = 0.02,
) -> int:
    """§VI-E: double θ until the estimated score converges within ``tol``.

    ``estimate_fn(theta)`` returns the estimated score with θ sketches.
    Returns the smallest θ whose estimate is within ``tol`` (relative) of
    the next doubling.
    """
    theta = theta0
    prev = estimate_fn(theta)
    while theta * 2 <= theta_max:
        cur = estimate_fn(theta * 2)
        denom = max(abs(cur), 1e-12)
        if abs(cur - prev) / denom <= tol:
            return theta
        theta *= 2
        prev = cur
    return theta
