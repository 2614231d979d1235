"""Voting-based scores (paper §II-B, Eqs. 3–7).

All five scores are NumPy functions over the dense ``(r, n)`` opinion
matrix at the time horizon.  The DuckDB oracle tests check the rank,
duel and contribution rules below against the same rules written as SQL.

Conventions: ``plurality = p_approval(p=1)``;
``p_approval = positional_p_approval`` with ω ≡ 1; the Copeland win rule is
strict (``>`` of win counts, Eq. 7).

The per-user rules — a user's contribution ω[β]·1[β ≤ p] to a
plurality-variant score (``unit_contribution``) and Copeland's per-opponent
above/below duels (``duels``) — are defined once here and shared by the
NumPy scores, the exact batch evaluator (``core.dm``) and the sketch greedy
(``core.sketch``).
"""
from __future__ import annotations

import numpy as np

SCORES = ("cumulative", "plurality", "p_approval", "positional_p_approval", "copeland")


def rank_np(b: np.ndarray, q: int) -> np.ndarray:
    """β(b_qv) per user v: number of candidates with b_xv ≥ b_qv (incl. q)."""
    return (b >= b[q][None, :]).sum(axis=0)


def _against(others: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``others`` (r-1, m) reshaped to broadcast against ``b`` (..., m)."""
    others = np.asarray(others)
    return others.reshape(others.shape[:1] + (1,) * (np.ndim(b) - 1) + others.shape[1:])


def unit_contribution(
    b: np.ndarray,
    others: np.ndarray,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
) -> np.ndarray:
    """Contribution ω[β]·1[β ≤ p] of each user at opinion ``b`` (..., m).

    β = 1 + #{x ≠ q : b_x ≥ b} against the non-target opinions ``others``
    (r-1, m) — the paper's rank (Eq. 4: q's own term contributes 1).
    Plurality is p = 1; plurality and p-approval use ω ≡ 1.
    """
    beta = 1 + (_against(others, b) >= b).sum(axis=0)
    pp = 1 if score == "plurality" else p
    if score == "positional_p_approval" and omega is not None:
        om = np.asarray(omega, dtype=np.float64)
        return np.where(beta <= pp, om[np.minimum(beta, len(om)) - 1], 0.0)
    return (beta <= pp).astype(np.float64)


def duels(b: np.ndarray, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copeland's pairwise duels (Eq. 7) of opinions ``b`` (..., m).

    Returns two bool arrays (r-1, ..., m): per opponent x and user, whether
    ``b`` is above / below ``b_x``.  Summed over users they are the win and
    loss counts; q beats x when above > below.
    """
    o = _against(others, b)
    return b > o, b < o


def cumulative_np(b: np.ndarray, q: int) -> float:
    return float(b[q].sum())


def positional_p_approval_np(
    b: np.ndarray, q: int, p: int, omega: np.ndarray | None = None
) -> float:
    contrib = unit_contribution(
        b[q], np.delete(b, q, axis=0), "positional_p_approval", p=p, omega=omega
    )
    return float(contrib.sum())


def p_approval_np(b: np.ndarray, q: int, p: int) -> float:
    return positional_p_approval_np(b, q, p)


def plurality_np(b: np.ndarray, q: int) -> float:
    """#users with b_qv strictly above every other candidate (Eq. 4: β ≤ 1)."""
    return p_approval_np(b, q, 1)


def copeland_np(b: np.ndarray, q: int) -> float:
    above, below = duels(b[q], np.delete(b, q, axis=0))
    return float((above.sum(axis=-1) > below.sum(axis=-1)).sum())


def score_np(
    b: np.ndarray,
    q: int,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
) -> float:
    """Dispatch one of the five scores on a dense (r, n) opinion matrix."""
    if score == "cumulative":
        return cumulative_np(b, q)
    if score == "plurality":
        return plurality_np(b, q)
    if score == "p_approval":
        return p_approval_np(b, q, p)
    if score == "positional_p_approval":
        return positional_p_approval_np(b, q, p, omega)
    if score == "copeland":
        return copeland_np(b, q)
    raise ValueError(f"unknown score: {score}")


def winner_np(b: np.ndarray, score: str, **kw) -> int:
    """Index of the candidate with the maximum score (first on ties)."""
    vals = [score_np(b, q, score, **kw) for q in range(b.shape[0])]
    return int(np.argmax(vals))

