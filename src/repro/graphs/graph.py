"""Opinion-graph substrate (paper §II).

``OpinionGraph`` is the canonical in-memory representation of one problem
instance: a directed graph with a column-stochastic influence matrix ``W``
(``w[i, j]`` = influence of user *i* on user *j*; incoming weights of every
node sum to 1), an initial-opinion matrix ``b0 ∈ [0,1]^{r×n}`` and a
stubbornness matrix ``d ∈ [0,1]^{r×n}`` — one row per candidate.

Storage is NumPy (edges as COO sorted by ``dst``) so that instances are
deterministic and cheap to broadcast.  Every FJ, score, reachability,
exact-evaluation and centrality kernel reads these arrays on the driver;
the Spark jobs (walk, sketch and RR-set generation) ship them to
``mapInArrow`` workers.  ``edges_pdf`` / ``state_pdf`` export the
instance as pandas tables for the DuckDB oracle.

``reach`` is the one multi-source frontier BFS: t-hop reachable sets
N_v^(t) (Def. 2) over the forward CSR for DM's reach-local kernel and the
sandwich UB, the same over the reverse CSR for the sandwich's coverage
sets, and live-edge reverse reachability for the IC RR sets.  It returns
flat sorted sets ``(nodes, offsets)``.

Normalization convention: the paper states that users without in-neighbors
retain their initial opinions (DeGroot); we realize this with an implicit
self-loop of weight 1 on every in-degree-0 node, which makes ``W`` truly
column-stochastic and lets every kernel treat all nodes uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd


@dataclass
class AliasTable:
    """Walker alias tables for O(1) weighted sampling of one in-neighbor.

    Built over the *reverse* graph: for node ``v``, sampling returns one of
    ``v``'s in-neighbors ``u`` with probability ``w[u, v]``.  Arrays are
    aligned with the reverse-CSR ``indices`` layout.
    """

    indptr: np.ndarray  # (n+1,) int64 — reverse-CSR row pointers
    indices: np.ndarray  # (nnz,) int32 — in-neighbor ids
    prob: np.ndarray  # (nnz,) float64 — alias acceptance probabilities
    alias: np.ndarray  # (nnz,) int32 — alias slot (local index within row)

    def sample(
        self, nodes: np.ndarray, u_slot: np.ndarray, u_accept: np.ndarray
    ) -> np.ndarray:
        """One in-neighbor for each node in ``nodes``, from two uniforms each.

        ``u_slot`` picks the alias slot and ``u_accept`` decides between the
        slot and its alias.
        """
        lo = self.indptr[nodes]
        # Every node has >=1 in-edge after self-loop normalization.
        slot = (u_slot * (self.indptr[nodes + 1] - lo)).astype(np.int64)
        local = np.where(u_accept < self.prob[lo + slot], slot, self.alias[lo + slot])
        return self.indices[lo + local]


def _build_alias_row(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias method for one probability row (sums to 1)."""
    k = len(p)
    prob = np.zeros(k)
    alias = np.zeros(k, dtype=np.int32)
    scaled = p * k
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s, l = small.pop(), large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        (small if scaled[l] < 1.0 else large).append(l)
    for i in large + small:
        prob[i] = 1.0
    return prob, alias


@dataclass
class OpinionGraph:
    """One FJ-Vote problem instance (graph + opinions + stubbornness)."""

    n: int
    src: np.ndarray  # (m,) int32 — edge sources, sorted by dst
    dst: np.ndarray  # (m,) int32 — edge destinations (sorted)
    w: np.ndarray  # (m,) float64 — column-stochastic: sum of w per dst == 1
    b0: np.ndarray  # (r, n) float64 in [0,1] — initial opinions per candidate
    d: np.ndarray  # (r, n) float64 in [0,1] — stubbornness per candidate
    candidates: list[str] = field(default_factory=list)
    _rev_csr: AliasTable | None = field(default=None, repr=False)
    _fwd_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    # ------------------------------------------------------------------ #
    # Construction & validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_edges(
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        b0: np.ndarray,
        d: np.ndarray,
        candidates: list[str] | None = None,
    ) -> "OpinionGraph":
        """Build an instance, normalizing ``weight`` to be column-stochastic.

        Raw non-negative weights are accepted; per-destination they are
        rescaled to sum to 1.  In-degree-0 nodes get a weight-1 self-loop
        (paper: such users retain their initial opinions).
        """
        src = np.asarray(src, dtype=np.int32)
        dst = np.asarray(dst, dtype=np.int32)
        weight = np.asarray(weight, dtype=np.float64)
        if (weight < 0).any():
            raise ValueError("edge weights must be non-negative")
        if len(src) and (max(src.max(), dst.max()) >= n or min(src.min(), dst.min()) < 0):
            raise ValueError("node ids out of range")
        # Drop zero-weight edges (paper: E is the union of non-zero edges).
        keep = weight > 0
        src, dst, weight = src[keep], dst[keep], weight[keep]
        in_sum = np.zeros(n)
        np.add.at(in_sum, dst, weight)
        orphans = np.flatnonzero(in_sum == 0)
        if len(orphans):
            src = np.concatenate([src, orphans.astype(np.int32)])
            dst = np.concatenate([dst, orphans.astype(np.int32)])
            weight = np.concatenate([weight, np.ones(len(orphans))])
            in_sum[orphans] = 1.0
        weight = weight / in_sum[dst]
        order = np.lexsort((src, dst))
        b0 = np.atleast_2d(np.asarray(b0, dtype=np.float64))
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        if b0.shape != d.shape or b0.shape[1] != n:
            raise ValueError(f"b0/d shape mismatch: {b0.shape} vs {d.shape}, n={n}")
        if ((b0 < 0) | (b0 > 1)).any() or ((d < 0) | (d > 1)).any():
            raise ValueError("b0 and d entries must lie in [0, 1]")
        cands = candidates or [f"c{i+1}" for i in range(b0.shape[0])]
        if len(cands) != b0.shape[0]:
            raise ValueError("candidate count must match b0 rows")
        return OpinionGraph(
            n=n,
            src=src[order],
            dst=dst[order],
            w=weight[order],
            b0=b0,
            d=d,
            candidates=list(cands),
        )

    @property
    def r(self) -> int:
        """Number of candidates."""
        return self.b0.shape[0]

    @property
    def m(self) -> int:
        """Number of (normalized) edges, self-loops included."""
        return len(self.src)

    def validate(self) -> None:
        """Assert the dst-sorted and column-stochastic invariants (tests).

        ``reverse_alias`` (hence walks and RR sets) relies on the sort: it
        reads ``(dst_indptr, src, w)`` as the reverse CSR.
        """
        if (np.diff(self.dst) < 0).any():
            raise AssertionError("edges are not sorted by dst")
        in_sum = np.zeros(self.n)
        np.add.at(in_sum, self.dst, self.w)
        if not np.allclose(in_sum, 1.0):
            raise AssertionError("W is not column-stochastic")

    # ------------------------------------------------------------------ #
    # Seeds
    # ------------------------------------------------------------------ #
    def with_seeds(self, cand: int, seeds) -> "OpinionGraph":
        """Return a copy with ``b0[cand, S] = d[cand, S] = 1`` (paper §II-C)."""
        b0 = self.b0.copy()
        d = self.d.copy()
        seeds = np.asarray(list(seeds), dtype=np.int64)
        if len(seeds):
            b0[cand, seeds] = 1.0
            d[cand, seeds] = 1.0
        return OpinionGraph(
            self.n, self.src, self.dst, self.w, b0, d, list(self.candidates)
        )

    def dst_indptr(self) -> np.ndarray:
        """Segment boundaries of the dst-sorted edge arrays (reverse CSR).

        Every node has ≥1 in-edge after self-loop normalization, so the
        segments enumerate all n nodes in order.
        """
        return _indptr(self.dst, self.n)

    def dense_w(self) -> np.ndarray:
        """Dense (n×n) influence matrix — BLAS path for small graphs."""
        W = np.zeros((self.n, self.n))
        np.add.at(W, (self.src, self.dst), self.w)
        return W

    # ------------------------------------------------------------------ #
    # Reverse-graph structures (for random walks)
    # ------------------------------------------------------------------ #
    def reverse_alias(self) -> AliasTable:
        """Alias tables over the reverse graph (cached)."""
        if self._rev_csr is None:
            # The edges are dst-sorted, so (dst_indptr, src, w) is the
            # reverse CSR.
            indptr = self.dst_indptr()
            indices = self.src.astype(np.int32)
            ws = self.w
            prob = np.empty(self.m)
            alias = np.empty(self.m, dtype=np.int32)
            for v in range(self.n):
                lo, hi = indptr[v], indptr[v + 1]
                p, a = _build_alias_row(ws[lo:hi])
                prob[lo:hi] = p
                alias[lo:hi] = a
            self._rev_csr = AliasTable(indptr, indices, prob, alias)
        return self._rev_csr

    # ------------------------------------------------------------------ #
    # Forward-graph structures (for reach-local FJ and reachable sets)
    # ------------------------------------------------------------------ #
    def forward_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, dst, w)`` with edges grouped by source (cached).

        Self-loops are kept: the reach-local FJ kernel propagates along
        them, and they add no node to a reachable set.
        """
        if self._fwd_csr is None:
            order = np.argsort(self.src, kind="stable")
            self._fwd_csr = (_indptr(self.src, self.n), self.dst[order], self.w[order])
        return self._fwd_csr

    # ------------------------------------------------------------------ #
    # Oracle exporters
    # ------------------------------------------------------------------ #
    def edges_pdf(self) -> pd.DataFrame:
        """Edges as pandas (for the DuckDB oracle)."""
        return pd.DataFrame(
            {"src": self.src.astype("int64"), "dst": self.dst.astype("int64"), "w": self.w}
        )

    def state_pdf(self, cand: int | None = None) -> pd.DataFrame:
        """Opinion state as pandas (for the DuckDB oracle)."""
        cands = range(self.r) if cand is None else [cand]
        return pd.concat(
            [
                pd.DataFrame(
                    {
                        "node": np.arange(self.n, dtype="int64"),
                        "cand": np.int32(q),
                        "b": self.b0[q],
                        "b0": self.b0[q],
                        "d": self.d[q],
                    }
                )
                for q in cands
            ],
            ignore_index=True,
        )


def _indptr(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers (n+1,) of an edge array grouped by ``keys``."""
    return np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=n))])


def segment_sum(vals: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """``out[..., j] = Σ_{e : index[e] = j} vals[..., e]`` for 1-D or 2-D+ ``vals``.

    One ``np.bincount`` over the flattened (row, index) keys.  Each output
    accumulates its terms in ``e`` order, as ``np.add.at`` does, so the two
    give bit-identical sums.
    """
    lead = vals.shape[:-1]
    rows = int(np.prod(lead))
    keys = (np.arange(rows)[:, None] * size + index).ravel()
    weights = vals.reshape(rows, vals.shape[-1]).ravel()
    out = np.bincount(keys, weights=weights, minlength=rows * size)
    return out.reshape(lead + (size,))


def spmv_dst(graph: OpinionGraph, x: np.ndarray) -> np.ndarray:
    """``y[j] = Σ_i x[i]·w[i,j]`` — one FJ aggregation over the COO edges.

    ``x`` is (n,) or (..., n); pure NumPy, no scipy.
    """
    return segment_sum(x[..., graph.src] * graph.w, graph.dst, graph.n)


# CSR entries one expansion hop may hold per root chunk (≈ 8 bytes each in
# several temporaries), which bounds ``reach``'s memory.  Every node has an
# in-edge, so m ≥ n and a chunk's (roots × n) ``seen`` mask also fits in it.
_EXPAND_BUDGET = 1 << 20


def out_edges(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All CSR edges of ``nodes``: (index into ``nodes``, edge slot).

    On the forward CSR these are out-edges; on the reverse CSR, in-edges.
    """
    deg = indptr[nodes + 1] - indptr[nodes]
    owner = np.repeat(np.arange(len(nodes)), deg)
    slot = np.arange(owner.size) + np.repeat(indptr[nodes] - np.cumsum(deg) + deg, deg)
    return owner, slot


def reach(
    indptr: np.ndarray,
    nbr: np.ndarray,
    roots: np.ndarray,
    hops: int,
    *,
    blocked: np.ndarray | None = None,
    live: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes within ``hops`` CSR hops of each root, as flat sorted sets.

    Root ``j``'s set is ``nodes[offsets[j]:offsets[j + 1]]``, ascending,
    the root included (h = 0).  Over the forward CSR ``(indptr, dst)`` this
    is N_v^(t) of Def. 2; over the reverse CSR ``(dst_indptr, src)``, the
    nodes that reach the root.  A ``blocked`` node is never entered, so
    paths through it are cut; a root always keeps itself.  With ``live``,
    edge slot ``e`` is followed from root ``j`` only where
    ``live(j, e)`` holds (a live-edge graph per root; ``hops`` ≥ n − 1 is
    unbounded).  All roots of a chunk expand together, one hop at a time,
    over deduplicated (root, node) frontier pairs; chunks hold
    ``_EXPAND_BUDGET`` CSR entries per hop.
    """
    n = len(indptr) - 1
    roots = np.asarray(roots, dtype=np.int64)
    step = max(1, _EXPAND_BUDGET // max(len(nbr), 1))
    nodes, counts = [np.zeros(0, dtype=np.int32)], [np.zeros(1, dtype=np.int64)]
    for lo in range(0, len(roots), step):
        size = min(step, len(roots) - lo)
        seen = np.zeros(size * n, dtype=bool)  # row-major (chunk root, node)
        rows, frontier = np.arange(size), roots[lo : lo + size]
        seen[rows * n + frontier] = True
        for _ in range(hops):
            owner, slot = out_edges(indptr, frontier)
            if live is not None:
                keep = live(lo + rows[owner], slot)
                owner, slot = owner[keep], slot[keep]
            tgt = nbr[slot]
            key = rows[owner] * n + tgt
            new = ~seen[key]
            if blocked is not None:
                new &= ~blocked[tgt]
            key = np.unique(key[new])
            if not len(key):
                break
            seen[key] = True
            rows, frontier = np.divmod(key, n)
        rows, node = np.divmod(np.flatnonzero(seen), n)
        nodes.append(node.astype(np.int32))
        counts.append(np.bincount(rows, minlength=size))
    return np.concatenate(nodes), np.cumsum(np.concatenate(counts))
