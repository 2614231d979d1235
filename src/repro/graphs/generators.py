"""Synthetic problem-instance generators.

``running_example()`` reproduces Fig. 1 / Table I of the paper exactly.
``social_graph()`` produces directed graphs with power-law in/out degree
(the shape of the paper's five real networks); ``latent_topic_opinions()``
produces initial opinions as cosine similarity between user and candidate
topic vectors (the paper derives opinions from embeddings / ratings /
sentiment — the latent-topic model plays the same statistical role; see
DESIGN.md §3).  All generators are deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import OpinionGraph


def running_example() -> OpinionGraph:
    """The 4-node instance of Fig. 1 with opinions chosen to match Table I.

    Edges (u→v): 1→3, 2→3 (weight ½ each after normalization) and 3→4.
    All users have stubbornness ½ for both candidates.  Initial opinions
    for c1 are [0.4, 0.8, 0.6, 0.9]; for c2 [0.35, 0.75, 1.0, 0.8] — at
    t=1 these give exactly the opinions and scores printed in Table I
    (c2 at t=1: 0.35, 0.75, 0.775≈0.78, 0.90).  Node ids are 0-based
    (paper's user *i* is node *i−1*).
    """
    src = np.array([0, 1, 2], dtype=np.int32)
    dst = np.array([2, 2, 3], dtype=np.int32)
    w = np.array([1.0, 1.0, 1.0])
    b0 = np.array([[0.40, 0.80, 0.60, 0.90], [0.35, 0.75, 1.00, 0.80]])
    d = np.full((2, 4), 0.5)
    return OpinionGraph.from_edges(4, src, dst, w, b0, d, ["c1", "c2"])


# Power-law exponent of the in/out degree propensities.
DEGREE_EXPONENT = 2.3
# Latent topics per user/candidate mixture, and the std of the Gaussian
# noise added to each cosine opinion.
N_TOPICS = 8
OPINION_NOISE = 0.05


def social_graph(
    n: int,
    avg_deg: float,
    *,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges with power-law degree skew (configuration-style).

    Returns ``(src, dst, weight)`` with raw positive weights; weights are
    exponential-count-shaped like the paper's ``1 − e^{−a/μ}`` interaction
    weights (normalization to column-stochastic happens in
    ``OpinionGraph.from_edges``).
    """
    rng = np.random.default_rng(seed)
    m = max(n, int(n * avg_deg))
    # Zipf-ish attachment propensities for both endpoints.
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p_out = ranks ** (-1.0 / (DEGREE_EXPONENT - 1.0))
    p_out /= p_out.sum()
    p_in = np.roll(p_out, n // 3)  # decorrelate hub identity in/out
    src = rng.choice(n, size=m, p=p_out).astype(np.int32)
    dst = rng.choice(n, size=m, p=p_in).astype(np.int32)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Dedup parallel edges, accumulating an interaction count `a`.
    key = src.astype(np.int64) * n + dst
    uniq, counts = np.unique(key, return_counts=True)
    src = (uniq // n).astype(np.int32)
    dst = (uniq % n).astype(np.int32)
    mu = 10.0  # paper's default μ (Appendix D)
    weight = 1.0 - np.exp(-counts / mu)
    return src, dst, weight


def latent_topic_opinions(
    n: int,
    r: int,
    *,
    seed: int,
) -> np.ndarray:
    """Initial opinions b0 ∈ [0,1]^{r×n} via user–candidate topic cosine.

    Users and candidates draw Dirichlet topic mixtures; ``b0[q, v]`` is the
    cosine similarity between user v's and candidate q's mixtures plus
    truncated Gaussian noise — the same role as the paper's
    embedding-cosine (DBLP) / rating (Yelp) / sentiment (Twitter) opinions.
    """
    rng = np.random.default_rng(seed)
    users = rng.dirichlet(np.full(N_TOPICS, 0.3), size=n)
    cands = rng.dirichlet(np.full(N_TOPICS, 0.3), size=r)
    sim = cands @ users.T  # (r, n)
    sim /= np.linalg.norm(cands, axis=1)[:, None] * np.linalg.norm(users, axis=1)[None, :]
    b0 = np.clip(sim + rng.normal(0, OPINION_NOISE, size=sim.shape), 0.0, 1.0)
    return b0


def random_instance(
    n: int,
    *,
    r: int = 2,
    avg_deg: float = 4.0,
    seed: int = 0,
    stubbornness: str = "uniform",
) -> OpinionGraph:
    """A full random FJ-Vote instance (graph + opinions + stubbornness)."""
    src, dst, w = social_graph(n, avg_deg, seed=seed)
    b0 = latent_topic_opinions(n, r, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    if stubbornness == "uniform":
        d = rng.random((r, n))
    elif stubbornness == "variance":
        # 1 − variance of per-period opinions (DBLP/Yelp recipe): stubborn
        # users have stable opinions.  Simulated via a Beta concentrated
        # near 1 with heavier lower tail.
        d = 1.0 - rng.beta(1.2, 6.0, size=(r, n))
    else:
        raise ValueError(f"unknown stubbornness recipe: {stubbornness}")
    return OpinionGraph.from_edges(n, src, dst, w, b0, d)
