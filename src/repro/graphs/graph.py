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
``mapInArrow`` workers.  ``in_layers`` regroups the in-edges for the
exact evaluator's layered FJ kernel.  ``edges_pdf`` / ``state_pdf``
export the instance as pandas tables for the DuckDB oracle.

An instance is fixed (§II): its arrays are read-only and seeding makes a
new one (``with_seeds``), so a result kept on a graph (``kept``: the CSRs,
``in_layers``, B^(t)[∅], the exact batch) is keyed by its parameters alone.

``reach`` is the one reachability entry point: t-hop reachable sets
N_v^(t) (Def. 2) over the forward CSR for DM's reach-local kernel and the
sandwich UB, the same over the reverse CSR for the sandwich's coverage
sets, and live-edge reverse reachability for the IC RR sets.  It
returns flat sorted sets ``(nodes, offsets)`` from one of two
expansions, split by size: one bit per root on graphs of at most
``DENSE_N_THRESHOLD`` nodes, a multi-source frontier BFS on larger ones
and for every ``live`` call.  Both give the same bytes.  (An LT RR set is
a reverse walk, not a reach: ``baselines.im`` draws it with ``AliasTable``.)

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

    def sample(self, nodes: np.ndarray, u_slot: np.ndarray, u_accept: np.ndarray) -> np.ndarray:
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
class InLayers:
    """The in-edges of W regrouped for a node-major FJ aggregation.

    Nodes are relabelled by descending in-degree (``order[new] = old``,
    ``rank[old] = new``).  Layer r holds the r-th in-edge, in the
    dst-sorted edge order, of every node whose in-degree exceeds r: edges
    ``ptr[r]:ptr[r + 1]``, whose destinations are the new labels
    ``0 .. ptr[r + 1] − ptr[r] − 1`` in order, so each layer adds into a
    prefix of the rows.  ``src`` holds new labels.  Every node has an
    in-edge, so layer 0 covers all n.  Adding the layers in order sums each
    node's terms in edge order, as ``segment_sum`` does.
    """

    order: np.ndarray  # (n,) int64 — old label of each new label
    rank: np.ndarray  # (n,) int64 — new label of each old label
    ptr: np.ndarray  # (max in-degree + 1,) int64 — layer boundaries
    src: np.ndarray  # (m,) int64 — edge sources, new labels, layer-major
    w: np.ndarray  # (m,) float64 — edge weights, same order


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
    # Results kept by ``kept``, never passed in, so ``dataclasses.replace``
    # and ``with_seeds`` start with nothing kept.
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        """Freeze the instance's arrays: every kept result depends on them."""
        for a in (self.src, self.dst, self.w, self.b0, self.d):
            a.setflags(write=False)

    def kept(self, kind: str, key, make: Callable[[], object]):
        """``make()``'s result, kept under ``kind`` while ``key`` stays the
        same.  One result is kept per kind: another key drops it before
        ``make`` runs, so the old and the new are never held together."""
        if kind not in self._kept or self._kept[kind][0] != key:
            self._kept.pop(kind, None)
            self._kept[kind] = (key, make())
        return self._kept[kind][1]

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

        Raw finite non-negative weights are accepted; per-destination they
        are rescaled to sum to 1.  In-degree-0 nodes get a weight-1 self-loop
        (paper: such users retain their initial opinions).  NaN or infinite
        weights, opinions or stubbornness raise ``ValueError``.
        """
        src = np.asarray(src, dtype=np.int32)
        dst = np.asarray(dst, dtype=np.int32)
        weight = np.asarray(weight, dtype=np.float64)
        if not (np.isfinite(weight) & (weight >= 0)).all():
            raise ValueError("edge weights must be finite and non-negative")
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
        b0 = np.array(b0, dtype=np.float64, ndmin=2)  # copies: the graph freezes its own
        d = np.array(d, dtype=np.float64, ndmin=2)
        if b0.shape != d.shape or b0.shape[1] != n:
            raise ValueError(f"b0/d shape mismatch: {b0.shape} vs {d.shape}, n={n}")
        if not (((b0 >= 0) & (b0 <= 1)).all() and ((d >= 0) & (d <= 1)).all()):
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

    def in_layers(self) -> InLayers:
        """The in-edges cut into in-degree layers (kept); see ``InLayers``."""

        def make() -> InLayers:
            indeg = np.bincount(self.dst, minlength=self.n)
            order = np.argsort(-indeg, kind="stable")
            rank = np.empty(self.n, dtype=np.int64)
            rank[order] = np.arange(self.n)
            # Position of each edge among its dst's in-edges (dst-sorted order).
            pos = np.arange(self.m) - self.dst_indptr()[self.dst]
            edges = np.argsort(pos * self.n + rank[self.dst], kind="stable")
            return InLayers(
                order,
                rank,
                _indptr(pos, int(indeg.max())),
                rank[self.src[edges]],
                self.w[edges],
            )

        return self.kept("in_layers", None, make)

    # ------------------------------------------------------------------ #
    # Reverse-graph structures (for random walks)
    # ------------------------------------------------------------------ #
    def reverse_alias(self) -> AliasTable:
        """Alias tables over the reverse graph (kept)."""

        def make() -> AliasTable:
            # The edges are dst-sorted, so (dst_indptr, src, w) is the
            # reverse CSR.
            indptr = self.dst_indptr()
            prob = np.empty(self.m)
            alias = np.empty(self.m, dtype=np.int32)
            for v in range(self.n):
                lo, hi = indptr[v], indptr[v + 1]
                prob[lo:hi], alias[lo:hi] = _build_alias_row(self.w[lo:hi])
            return AliasTable(indptr, self.src.astype(np.int32), prob, alias)

        return self.kept("reverse_alias", None, make)

    # ------------------------------------------------------------------ #
    # Forward-graph structures (for reach-local FJ and reachable sets)
    # ------------------------------------------------------------------ #
    def forward_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, dst, w)`` with edges grouped by source (kept).

        Self-loops are kept: the reach-local FJ kernel propagates along
        them, and they add no node to a reachable set.
        """

        def make() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            order = np.argsort(self.src, kind="stable")
            return _indptr(self.src, self.n), self.dst[order], self.w[order]

        return self.kept("forward_csr", None, make)

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


# Graphs with at most this many nodes are small.  There the exact
# evaluator (``core.dm``) keeps every candidate's opinion row, made by its
# layered kernel, and ``reach`` without ``live`` expands one bit per root
# (``_reach_bits``).  Above it the evaluator runs reach-local, and ``reach``
# the frontier BFS.  At t = 20, frontier → bits (``test_reach_time``,
# BENCH_efficiency.json entry 717b039, medians of 5 runs, 4-core host):
# the sandwich's coverage sets 0.19 → 0.010 s on yelp-lite and 0.22 →
# 0.006 s on dblp-lite; every node's forward reach with 2 seeds blocked
# 0.21 → 0.011 s and 0.40 → 0.007 s.  On twitter-sd-lite (n = 3 245) the
# bits lose, 0.009 → 0.060 s and 0.018 → 0.14 s, so larger graphs keep the
# frontier.
DENSE_N_THRESHOLD = 1500

# Entries one root chunk of ``reach`` may hold.  Unfiltered, a hop can
# expand every CSR entry of the chunk (≈ 8 bytes each in several
# temporaries), so a chunk has ``_EXPAND_BUDGET // m`` roots; m ≥ n, so its
# (roots × n) ``seen`` mask fits too.  An IC live-edge set keeps about one
# in-edge per node (in-weights sum to 1), so there the mask is the bound
# and a chunk has ``_EXPAND_BUDGET // n`` roots.  ``baselines.im``'s LT
# walks size their chunks' ``seen`` masks by it too.
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
    edge slot ``e`` is followed from root ``j`` only where ``live(j, e)``
    holds, elementwise over arrays of pairs (a live-edge graph per root;
    ``hops`` ≥ n − 1 is unbounded).

    Without ``live``, a graph of at most ``DENSE_N_THRESHOLD`` nodes runs
    ``_reach_bits``.  Otherwise all roots of a chunk expand together, one
    hop at a time, over deduplicated (root, node) frontier pairs; chunks
    hold ``_EXPAND_BUDGET`` CSR entries per hop, or ``seen`` entries with
    ``live``.  A chunk's sets are read off its ``seen`` mask, or, with
    ``live``, by sorting the keys each hop added.
    """
    n = len(indptr) - 1
    roots = np.asarray(roots, dtype=np.int64)
    if live is None and n <= DENSE_N_THRESHOLD:
        return _reach_bits(indptr, nbr, roots, hops, blocked)
    step = max(1, _EXPAND_BUDGET // (n if live is not None else max(len(nbr), 1)))
    nodes, counts = [np.zeros(0, dtype=np.int32)], [np.zeros(1, dtype=np.int64)]
    for lo in range(0, len(roots), step):
        size = min(step, len(roots) - lo)
        seen = np.zeros(size * n, dtype=bool)  # row-major (chunk root, node)
        rows, frontier = np.arange(size), roots[lo : lo + size]
        found = [rows * n + frontier]  # the keys each hop adds, with ``live``
        seen[found[0]] = True
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
            if live is not None:
                found.append(key)
            rows, frontier = np.divmod(key, n)
        # Live-edge sets are small: sorting their keys beats scanning the mask.
        keys = np.sort(np.concatenate(found)) if live is not None else np.flatnonzero(seen)
        rows, node = np.divmod(keys, n)
        nodes.append(node.astype(np.int32))
        counts.append(np.bincount(rows, minlength=size))
    return np.concatenate(nodes), np.cumsum(np.concatenate(counts))


def _reach_bits(
    indptr: np.ndarray,
    nbr: np.ndarray,
    roots: np.ndarray,
    hops: int,
    blocked: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``reach`` without ``live``, one bit per root for every node.

    Node x holds bit j when x is in root j's set.  A hop ORs into every node
    the bits of its CSR predecessors (the nodes whose edges enter it) and
    its own: one gather and one ``np.bitwise_or.reduceat`` over the
    transposed CSR.  A ``blocked`` node keeps only its own roots' bits, and
    the hops stop once no bit changes.  OR is exact, so the sets are the
    frontier BFS's.  Chunks hold ``_EXPAND_BUDGET`` gathered 64-bit words
    per hop; a chunk's sets are read off one ``unpackbits`` of its bits.
    """
    n = len(indptr) - 1
    # Every node's predecessors and the node itself, grouped by node.
    tail = np.concatenate([np.repeat(np.arange(n), np.diff(indptr)), np.arange(n)])
    head = np.concatenate([nbr, np.arange(n)])
    pred, starts = tail[np.argsort(head, kind="stable")], _indptr(head, n)[:-1]
    step = 64 * max(1, _EXPAND_BUDGET // max(len(pred), 1))
    nodes, counts = [np.zeros(0, dtype=np.int32)], [np.zeros(1, dtype=np.int64)]
    for lo in range(0, len(roots), step):
        size = min(step, len(roots) - lo)
        col = np.arange(size, dtype=np.uint64)
        init = np.zeros((n, -(-size // 64)), dtype="<u8")
        np.bitwise_or.at(init, (roots[lo : lo + size], col // 64), np.uint64(1) << col % 64)
        bits = init
        for _ in range(hops):
            new = np.bitwise_or.reduceat(bits[pred], starts, axis=0)
            if blocked is not None:
                new[blocked] = init[blocked]
            if np.array_equal(new, bits):
                break
            bits = new
        # Row j of the unpacked block is root j's set; the pad bits are dropped.
        mask = np.unpackbits(bits.view(np.uint8), axis=1, count=size, bitorder="little")
        mask = mask.T.astype(bool)
        nodes.append(np.broadcast_to(np.arange(n, dtype=np.int32), mask.shape)[mask])
        counts.append(np.count_nonzero(mask, axis=1))
    return np.concatenate(nodes), np.cumsum(np.concatenate(counts))
