"""One greedy max-gain engine over sketches (paper Algs. 4–5, IMM, §IV).

RW (Alg. 4), RS (Alg. 5), the IC/LT max-coverage over RR sets and the
sandwich upper bound's coverage greedy (§IV) are the same loop: given node
sequences ("sketches") each carrying a value ``op``, repeatedly add the
node with the largest estimated marginal gain and truncate every sketch
that contains it (Post-Generation Truncation, Thm 9).  ``SketchSet`` holds
the sketches as flat arrays on the driver — an int32 node array, offsets,
a per-sketch ``op`` and a per-sketch live length ``cut`` — and runs that
loop with NumPy.  The sketches come once, in id order, from
``opinion.walks`` (the one module that knows about Spark and gets a
session): reverse walks are always made on the driver, and RR sets on the
driver up to a measured crossover, in one Spark job above it.  ``select``
launches no job, and no constructor here takes a session.

Sketches are grouped into *units* of ``per_unit`` consecutive sketches, the
things the score counts:

* RW — the λ walks from one start user; the unit's estimate is their mean.
* RS — each walk on its own (λ_v = 1), scaled by n/θ (Eqs. 35, 42, 47).
* IC/LT — each RR set, with ``op = 0``: the cumulative gain of a node is
  then the number of uncovered RR sets that contain it.
* Sandwich UB — one set per uncovered user (the nodes reaching it within t
  hops), again with ``op = 0``.

A cumulative gain is a ``bincount`` of each sketch's lift 1 − op.  A rank
gain is ``voting.scores.score_change`` with one group per candidate node and
one unit per RW user or RS sketch, and F̂ is ``voting.scores.score_rows``.
The n/θ scale applies to the scores that sum over users, never to Copeland.

RW and RS are one estimator (Eq. 42): λ_v reverse walks per sampled user,
truncated at the seeds.  ``SketchSelector`` builds both from the walks'
paths alone: a unit's user is the first node of its first walk, a walk's
``op`` is the target's initial opinion of its last node, and the scale is
n / #units (1 for RW, n/θ for RS).

Greedy rule: the pick is the maximum gain, ties broken by the smallest node
id, among the unselected nodes that occur in a live sketch prefix; when no
such node is left, the pick is the smallest unselected id.
"""
from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from repro.core.dm import others_at_horizon
from repro.graphs.graph import OpinionGraph
from repro.opinion.walks import WALK_COLUMNS, driver_sketches, map_id_range, walk_kernel
from repro.voting.scores import USER_SUMS, score_change, score_rows


class SketchSet:
    """Sketches with post-generation truncation and the greedy over them.

    Sketch ``j`` belongs to unit ``j // per_unit`` (default: every sketch
    is its own unit).  Rank-based scores compare each unit's estimate
    against ``others`` (r-1, #units), the non-target candidates' exact
    opinions of the unit's user.  On a hit, a walk keeps its prefix up to
    and including the seed, whose nodes stay candidates; a set
    (``retire=True``) drops out entirely, and must hold each node at most
    once, as reachable sets and RR sets do.
    """

    def __init__(
        self,
        n: int,
        nodes: np.ndarray,
        offsets: np.ndarray,
        op: np.ndarray,
        *,
        score: str = "cumulative",
        per_unit: int = 1,
        others: np.ndarray | None = None,
        p: int = 1,
        omega: np.ndarray | None = None,
        scale: float = 1.0,
        retire: bool = False,
    ):
        self.n = n
        self.nodes = np.asarray(nodes, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.op = np.array(op, dtype=np.float64)
        self.cut = np.diff(self.offsets)
        nsk = len(self.cut)
        self.unit = np.arange(nsk) // per_unit
        self.per_unit = per_unit
        self.score, self.others, self.p, self.omega = score, others, p, omega
        self.scale = scale if score in USER_SUMS else 1.0  # Copeland counts duels
        self.retire = retire
        self.seeds: list[int] = []
        self._sketch = np.repeat(np.arange(nsk), self.cut)
        self._pos = np.arange(len(self.nodes)) - self.offsets[self._sketch]
        # A node counts once per sketch (its first occurrence); truncation
        # only shortens prefixes, so this mask never changes.  A set
        # (``retire``) holds each node once, so every entry is first.
        if retire:
            self._first = np.ones(len(self.nodes), dtype=bool)
        else:
            _, first = np.unique(self._sketch * n + self.nodes, return_index=True)
            self._first = np.zeros(len(self.nodes), dtype=bool)
            self._first[first] = True

    def _live(self) -> np.ndarray:
        """First occurrences of nodes inside their sketch's live prefix."""
        return self._first & (self._pos < self.cut[self._sketch])

    def estimates(self) -> np.ndarray:
        """Per-unit estimate: the mean ``op`` of the unit's sketches."""
        return np.bincount(self.unit, weights=self.op) / self.per_unit

    def estimated_score(self) -> float:
        """F̂ for the current (already-truncated) sketches."""
        f = score_rows(self.estimates(), self.others, self.score, p=self.p, omega=self.omega)
        return float(f) * self.scale

    def gains(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gain, cand)`` over all n nodes.

        ``gain[v]`` is the estimated marginal gain of adding v: every live
        sketch containing v would be truncated at v and its ``op`` become 1.
        ``cand[v]`` says whether v occurs in a live sketch prefix.
        """
        live = self._live()
        v, j = self.nodes[live], self._sketch[live]
        cand = np.bincount(v, minlength=self.n) > 0
        lift = (1.0 - self.op[j]) / self.per_unit
        if self.score == "cumulative":
            return np.bincount(v, weights=lift, minlength=self.n) * self.scale, cand
        # Rise of each unit's estimate per candidate: one entry per (unit, v).
        pairs, inv = np.unique(self.unit[j] * self.n + v, return_inverse=True)
        u, pv = np.divmod(pairs, self.n)
        b = self.estimates()
        new = np.minimum(b[u] + np.bincount(inv, weights=lift), 1.0)
        change = score_change(
            b, self.others, self.score, pv, u, new, self.n, p=self.p, omega=self.omega
        )
        return change * self.scale, cand

    def truncate(self, seed: int) -> None:
        """Truncate every live sketch at its first occurrence of ``seed``."""
        hit = self._live() & (self.nodes == seed)
        j = self._sketch[hit]
        self.cut[j] = 0 if self.retire else self._pos[hit] + 1
        self.op[j] = 1.0

    def select(self, k: int) -> list[int]:
        """The first k greedy seeds by estimated marginal gain.

        Resumable: a later call with a larger ``k`` extends the selected
        sequence on the already-truncated sketches; a smaller ``k`` returns
        its prefix.
        """
        if not 0 <= k <= self.n:
            raise ValueError(f"cannot select k={k} seeds from {self.n} nodes")
        while len(self.seeds) < k:
            gain, cand = self.gains()
            cand[self.seeds] = False
            if cand.any():
                nodes = np.flatnonzero(cand)
                pick = int(nodes[np.argmax(gain[nodes])])
            else:
                pick = next(v for v in range(self.n) if v not in self.seeds)
            self.seeds.append(pick)
            self.truncate(pick)
        return self.seeds[:k]


class SketchSelector:
    """RW and RS: the greedy over reverse walks truncated at the seeds.

    ``lam`` walks from every user (RW, Alg. 4) or ``theta`` walks from
    uniformly drawn users (RS, Alg. 5, λ_v = 1), made once on the driver
    by ``opinion.walks.driver_sketches``, so construction needs no Spark
    session; units, their users, each walk's ``op`` and the scale all follow
    from the paths.  ``walks``, the same walks as a Spark DataFrame
    ``(walk_id, path)`` of the same kernel, is built on first read, in the
    session ``opinion.walks.map_id_range`` gets.
    """

    def __init__(
        self,
        graph: OpinionGraph,
        target: int,
        t: int,
        score: str,
        *,
        lam: int | None = None,
        theta: int | None = None,
        p: int = 1,
        omega=None,
        seed: int = 0,
    ):
        kernel, count = walk_kernel(graph, target, t, lam=lam, theta=theta, seed=seed)
        self._walk_frame = partial(map_id_range, count, kernel, WALK_COLUMNS)
        nodes, offsets = driver_sketches(count, kernel)
        per_unit = lam or 1
        users = nodes[offsets[:-1:per_unit]]
        others = None
        if score != "cumulative":
            others = others_at_horizon(graph, target, t)[:, users]
        self.sketches = SketchSet(
            graph.n,
            nodes,
            offsets,
            graph.b0[target, nodes[offsets[1:] - 1]],
            score=score,
            per_unit=per_unit,
            others=others,
            p=p,
            omega=omega,
            scale=graph.n / len(users),
        )

    @cached_property
    def walks(self):
        """The walks as a lazy Spark DataFrame ``(walk_id, path)``."""
        return self._walk_frame()

    def select(self, k: int) -> list[int]:
        """Greedy top-k seeds (resumable, see ``SketchSet.select``)."""
        return self.sketches.select(k)

    def estimated_score(self) -> float:
        """F̂ for the seeds selected so far."""
        return self.sketches.estimated_score()

    def close(self) -> None:
        """Release the driver-side sketch arrays."""
        self.sketches = None
