"""Voting-based scores (paper §II-B, Eqs. 3–7).

One rule scores opinions for every caller.  ``score_rows`` gives F for each
row of target opinions against the non-target opinions ``others``;
``score_change`` gives the change in F when some users' target opinions
move.  The NumPy scores (``score_np``), the exact evaluator (``core.dm``)
and the sketch greedy (``core.sketch``) all call these two, and only they
call the per-user rules below.  The DuckDB oracle tests check the rank,
duel and contribution rules against the same rules written as SQL.

* β (``rank``) = 1 + #{x ≠ q : b_x ≥ b_q} per user (Eq. 4).
* Cumulative, plurality, p-approval and positional-p-approval sum a
  per-user term (``unit_contribution``): the opinion itself, or
  ω[β]·1[β ≤ p].  ``plurality = p_approval(p=1)``; ``p_approval`` is
  ``positional_p_approval`` with ω ≡ 1.
* Copeland counts the opponents q beats in pairwise duels (``duels``); the
  win rule is strict (``>`` of win counts, Eq. 7).

An unknown score name raises ``ValueError``.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import segment_sum

# Every score but Copeland is a sum of per-user terms, so a uniform sample of
# users estimates it scaled by n / #samples; Copeland counts won duels.
USER_SUMS = ("cumulative", "plurality", "p_approval", "positional_p_approval")
SCORES = USER_SUMS + ("copeland",)


def _against(others: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``others`` (r-1, m) reshaped to broadcast against ``b`` (..., m)."""
    others = np.asarray(others)
    return others.reshape(others.shape[:1] + (1,) * (np.ndim(b) - 1) + others.shape[1:])


def rank(b: np.ndarray, others: np.ndarray) -> np.ndarray:
    """β per user at target opinion ``b`` (..., m): 1 + #{x ≠ q : b_x ≥ b}.

    ``others`` (r-1, m) are the non-target opinions; q's own term is the 1.
    """
    return 1 + (_against(others, b) >= b).sum(axis=0)


def unit_contribution(
    b: np.ndarray,
    others: np.ndarray | None,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
) -> np.ndarray:
    """Each user's term of a per-user score at target opinion ``b`` (..., m).

    Cumulative: the opinion itself.  Plurality variants: ω[β]·1[β ≤ p],
    with plurality at p = 1 and ω ≡ 1 unless positional weights are given.
    """
    if score == "cumulative":
        return b
    if score not in USER_SUMS:
        raise ValueError(f"unknown score: {score!r}")
    beta = rank(b, others)
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


def score_rows(
    b: np.ndarray,
    others: np.ndarray | None,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
    user_mask: np.ndarray | None = None,
) -> np.ndarray:
    """F for each row of target opinions ``b`` (..., m) against ``others`` (r-1, m).

    ``user_mask`` restricts F to a subset of the m users (the sandwich LB,
    Def. 3).  Cumulative ignores ``others``.
    """
    if user_mask is not None:
        b = b[..., user_mask]
        others = None if others is None else others[:, user_mask]
    if score == "copeland":
        above, below = duels(b, others)
        return (above.sum(axis=-1) > below.sum(axis=-1)).sum(axis=0).astype(np.float64)
    return unit_contribution(b, others, score, p=p, omega=omega).sum(axis=-1)


def score_change(
    b: np.ndarray,
    others: np.ndarray,
    score: str,
    group: np.ndarray,
    unit: np.ndarray,
    new: np.ndarray,
    size: int,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
) -> np.ndarray:
    """Change in a rank-based F when ``b[unit[i]]`` becomes ``new[i]``.

    ``b`` (m,) are the current target opinions and ``others`` (r-1, m) the
    non-target ones.  Pair i belongs to group ``group[i]`` < ``size``; the
    pairs of a group change together (a unit appears at most once per
    group), and groups are independent.  Returns one change per group.
    """
    old, opp = b[unit], others[:, unit]
    if score == "copeland":
        above, below = (x.sum(axis=-1, keepdims=True) for x in duels(b, others))
        (new_above, new_below), (old_above, old_below) = duels(new, opp), duels(old, opp)
        wins = above + segment_sum(new_above * 1.0 - old_above, group, size) > (
            below + segment_sum(new_below * 1.0 - old_below, group, size)
        )
        return wins.sum(axis=0) - (above > below).sum()
    rise = unit_contribution(new, opp, score, p=p, omega=omega) - unit_contribution(
        old, opp, score, p=p, omega=omega
    )
    return segment_sum(rise, group, size)


def score_np(
    b: np.ndarray,
    q: int,
    score: str,
    *,
    p: int = 1,
    omega: np.ndarray | None = None,
) -> float:
    """F of candidate ``q`` on a dense (r, n) opinion matrix."""
    return float(score_rows(b[q], np.delete(b, q, axis=0), score, p=p, omega=omega))
