"""Workload table, method runners, output checks and the DuckDB oracle.

Every runner calls only public entry points of ``repro`` and marks the
part of its work that counts toward the method's ``select_s`` with
``ctx.timed()``.  In a traced run the same runners also record spans and
per-layer counts; that extra work sits outside ``ctx.timed()`` and runs
under its own Spark job group, so it is charged to no method.
"""
from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import duckdb
import numpy as np
from pyspark.sql import functions as F

from repro.baselines.centrality import degree_seeds, rwr_seeds
from repro.baselines.im import generate_rr_sets, select_seeds_im
from repro.core import sandwich as sandwich_mod
from repro.core.dm import ExactEvaluator, greedy_dm
from repro.core.rs import RSSelector
from repro.core.rw import RWSelector
from repro.experiments.datasets import SPECS, TARGETS
from repro.experiments.tables import trailing_candidate
from repro.graphs.generators import random_instance
from repro.opinion.fj import fj_diffuse_np, opinions_at_horizon_np
from repro.voting.scores import score_np

from spans import TimedEvaluator, Tracer, spark_job_counts


@dataclass(frozen=True)
class Workload:
    dataset: str
    score: str
    target: str  # "paper" (datasets.TARGETS) or "trailing" (lowest score)
    k: int
    methods: tuple[str, ...]


# k and the RWR iteration count sit below the paper's settings, and RW runs
# on twitter only, so that one run, Spark start included, stays under a
# minute on 4 cores (README.md).
WORKLOADS = {
    "twitter-cumulative": Workload(
        "twitter-sd-lite", "cumulative", "paper", 3,
        ("DM", "RW", "RS", "IC", "LT", "centrality"),
    ),
    "yelp-plurality": Workload(
        "yelp-lite", "plurality", "trailing", 4, ("DM", "RS", "sandwich")
    ),
}

# Every method a workload can run, in the order the benchmark reports them.
METHODS = ("DM", "RW", "RS", "sandwich", "IC", "LT", "centrality")

# Seed lists summed into the end-to-end ``gain``: the paper's own methods.
# The baselines (IC/LT/RWR/DC) stay out so that they do not dilute a loss
# of RW or RS seed quality; their gains are in the report.
PAPER_METHODS = ("DM", "RW", "RS", "sandwich")


@dataclass(frozen=True)
class Params:
    """Sizes shared by all workloads (paper t = 20, EXPERIMENTS.md budgets)."""

    t: int = 20
    nodes: int | None = None  # None = the dataset's lite size
    k: int | None = None  # None = the workload's k
    lam: int = 40  # RW walks per node
    theta_per_node: int = 4  # RS sketches = 4n
    rr_theta: int = 8000  # IC/LT RR sets
    rwr_iters: int = 3  # RWR power iterations


TINY = Params(t=4, nodes=200, k=2, lam=8, rr_theta=400, rwr_iters=2)


def make_graph(dataset: str, graph_seed: int, nodes: int | None):
    """``datasets.load`` with the registry seed offset by ``graph_seed``.

    ``graph_seed`` 0 rebuilds exactly what ``datasets.load`` returns.
    """
    spec = SPECS[dataset]
    return random_instance(
        nodes or spec.lite_nodes,
        r=spec.r,
        avg_deg=spec.avg_deg,
        seed=spec.seed + graph_seed,
        stubbornness=spec.stubbornness,
    )


def exact_score(graph, target: int, t: int, score: str, seeds) -> float:
    """Exact F(S): t FJ steps with S seeded, then the voting score."""
    return score_np(opinions_at_horizon_np(graph, t, target, seeds), target, score)


def seeds_sha(seeds) -> str:
    return hashlib.sha256(",".join(str(int(s)) for s in seeds).encode()).hexdigest()[:16]


@dataclass
class Ctx:
    """Everything one workload run needs; runners read it and add results."""

    spark: object
    graph: object
    target: int
    t: int
    k: int
    score: str
    seed: int  # RW/RS/IM RNG seed
    params: Params
    tracer: Tracer | None = None
    elapsed: float = 0.0
    selections: dict = field(default_factory=dict)  # name -> seed list
    info: dict = field(default_factory=dict)  # name -> extra check inputs
    layer: dict = field(default_factory=dict)  # per-layer values (traced)

    @contextmanager
    def timed(self, group: str):
        """Charge the block to ``select_s`` and to job group ``group``."""
        self.spark.sparkContext.setJobGroup(group, group)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t0

    @contextmanager
    def untimed(self):
        """Trace-only work: charged to no method (job group ``trace``)."""
        self.spark.sparkContext.setJobGroup("trace", "trace")
        yield

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)


# --------------------------------------------------------------------- #
# Method runners
# --------------------------------------------------------------------- #
def run_dm(ctx: Ctx) -> None:
    with ctx.timed("DM"):
        ev = ExactEvaluator(ctx.spark, ctx.graph, ctx.target, ctx.t, ctx.score)
        if ctx.tracer is not None:
            ev = TimedEvaluator(ev, ctx.tracer)
        seeds, trace = greedy_dm(ev, ctx.k, celf=ctx.score == "cumulative")
    ctx.selections["DM"] = seeds
    ctx.info["DM"] = {"trace_last": trace[-1]}


def _run_sketch(ctx: Ctx, name: str, make) -> None:
    """RW/RS: constructor + select(k) + close(); traced runs go round by round."""
    tr = ctx.tracer
    if tr is None:
        with ctx.timed(name):
            sel = make()
            seeds = sel.select(ctx.k)
            sel.close()
        ctx.selections[name] = seeds
        return
    sc = ctx.spark.sparkContext
    with ctx.timed(name), ctx.span(f"{name}.init"):
        sel = make()
    init_jobs = len(sc.statusTracker().getJobIdsForGroup(name))
    with ctx.untimed():
        row = sel.walks.agg(F.count("*"), F.sum(F.size("path"))).collect()[0]
    for r in range(1, ctx.k + 1):
        with ctx.timed(name), ctx.span(f"{name}.round"):
            seeds = sel.select(r)
    round_jobs = len(sc.statusTracker().getJobIdsForGroup(name)) - init_jobs
    with ctx.untimed():
        est = sel.estimated_score()
    with ctx.timed(name):
        sel.close()
    exact = exact_score(ctx.graph, ctx.target, ctx.t, ctx.score, seeds)
    key = name.lower()
    ctx.layer[f"walks.rows.{name}"] = int(row[0])
    ctx.layer[f"walks.path_nodes.{name}"] = int(row[1])
    ctx.layer[f"{key}.jobs_per_round"] = round_jobs / ctx.k
    ctx.layer[f"{key}.est_err"] = abs(est - exact) / exact if exact else abs(est)
    ctx.selections[name] = seeds


def run_rw(ctx: Ctx) -> None:
    _run_sketch(
        ctx,
        "RW",
        lambda: RWSelector(
            ctx.spark, ctx.graph, ctx.target, ctx.t, ctx.score,
            lam=ctx.params.lam, seed=ctx.seed,
        ),
    )


def run_rs(ctx: Ctx) -> None:
    _run_sketch(
        ctx,
        "RS",
        lambda: RSSelector(
            ctx.spark, ctx.graph, ctx.target, ctx.t, ctx.score,
            theta=ctx.params.theta_per_node * ctx.graph.n, seed=ctx.seed,
        ),
    )


_SANDWICH_PARTS = {
    "reach_sets_np": "sandwich.reach",
    "greedy_coverage": "sandwich.cover",
    "greedy_dm": "sandwich.lb",
}


@contextmanager
def _traced_sandwich(tracer: Tracer):
    """Wrap the sandwich module's helpers in spans (traced process only)."""
    saved = {attr: getattr(sandwich_mod, attr) for attr in _SANDWICH_PARTS}

    def wrap(fn, span_name):
        def inner(*a, **kw):
            with tracer.span(span_name):
                return fn(*a, **kw)

        return inner

    try:
        for attr, span_name in _SANDWICH_PARTS.items():
            setattr(sandwich_mod, attr, wrap(saved[attr], span_name))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(sandwich_mod, attr, fn)


def run_sandwich(ctx: Ctx) -> None:
    """Algorithm 3 with S_F = the DM seeds already chosen in this pass."""
    dm_seeds = ctx.selections["DM"]

    def select():
        return sandwich_mod.sandwich_select(
            ctx.spark, ctx.graph, ctx.target, ctx.t, ctx.k, ctx.score,
            selector=lambda kk: list(dm_seeds[:kk]),
        )

    if ctx.tracer is None:
        with ctx.timed("sandwich"):
            res = select()
    else:
        with ctx.timed("sandwich"), _traced_sandwich(ctx.tracer):
            res = select()
        ctx.layer["sandwich.ratio"] = res.ratio
    ctx.selections["sandwich"] = res.seeds
    ctx.info["sandwich"] = {
        "options": [f for f in (res.f_su, res.f_sl, res.f_sf) if f is not None],
        "ratio": res.ratio,
    }


def _run_im(ctx: Ctx, name: str) -> None:
    model = name.lower()
    theta = ctx.params.rr_theta
    with ctx.timed(name):
        seeds = select_seeds_im(
            ctx.spark, ctx.graph, model, ctx.k, theta=theta, seed=ctx.seed
        )
    ctx.selections[name] = seeds
    if ctx.tracer is not None:
        with ctx.untimed():
            with ctx.span(f"{name}.rr_gen"):
                rr = generate_rr_sets(ctx.spark, ctx.graph, model, theta, seed=ctx.seed)
                rr.count()
            row = rr.agg(F.sum(F.size("nodes"))).collect()[0]
        ctx.layer[f"im.rr_nodes.{name}"] = int(row[0])


def run_ic(ctx: Ctx) -> None:
    _run_im(ctx, "IC")


def run_lt(ctx: Ctx) -> None:
    _run_im(ctx, "LT")


def run_centrality(ctx: Ctx) -> None:
    """RWR + DC, timed together as one method.

    PR is left out: it runs the same DataFrame power iteration as RWR
    (``_pagerank_df``) with a uniform restart vector, so it would double
    the cost and measure no other code.
    """
    tr, it = ctx.tracer, ctx.params.rwr_iters
    calls = {
        "RWR": lambda: rwr_seeds(ctx.spark, ctx.graph, ctx.k, ctx.target, iters=it),
        "DC": lambda: degree_seeds(ctx.spark, ctx.graph, ctx.k),
    }
    with ctx.timed("centrality"):
        for name, call in calls.items():
            if tr is None:
                ctx.selections[name] = call()
            else:
                with ctx.span(f"centrality.{name.lower()}"):
                    ctx.selections[name] = call()


RUNNERS = {
    "DM": run_dm,
    "RW": run_rw,
    "RS": run_rs,
    "sandwich": run_sandwich,
    "IC": run_ic,
    "LT": run_lt,
    "centrality": run_centrality,
}

# Seed lists each method returns (centrality returns two).
SELECTIONS = {m: (m,) for m in METHODS} | {"centrality": ("RWR", "DC")}


def run_method(ctx: Ctx, method: str) -> tuple[float, dict, list[str]]:
    """Run one method; returns (select_s, its seed lists, its failures).

    A method that raises, or whose Spark jobs lost a task, fails; the
    seed lists it did return are still reported.
    """
    ctx.elapsed = 0.0
    for name in SELECTIONS[method]:
        ctx.selections.pop(name, None)
    errs = []
    try:
        if ctx.tracer is None:
            RUNNERS[method](ctx)
        else:
            with ctx.span(f"select.{method}"):
                RUNNERS[method](ctx)
    except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
        errs.append(f"{method}: raised {type(exc).__name__}: {exc}")
    counts = spark_job_counts(ctx.spark.sparkContext, method)
    if counts["failed_tasks"]:
        errs.append(f"{method}: {counts['failed_tasks']} failed Spark tasks")
    for key, val in counts.items():
        ctx.layer[f"spark.{key}.{method}"] = val
    seeds = {n: list(ctx.selections[n]) for n in SELECTIONS[method] if n in ctx.selections}
    return ctx.elapsed, seeds, errs


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #
def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_selection(ctx: Ctx, name: str, seeds, f_empty: float) -> tuple[float, list[str]]:
    """Exact gain F(S) − F(∅) of ``seeds`` and the checks it fails."""
    errs = []
    n, k = ctx.graph.n, ctx.k
    if len(seeds) != k or len(set(seeds)) != k:
        errs.append(f"{name}: expected {k} distinct seeds, got {seeds}")
    if any(not 0 <= s < n for s in seeds):
        errs.append(f"{name}: seed out of range [0, {n})")
        return 0.0, errs
    f = exact_score(ctx.graph, ctx.target, ctx.t, ctx.score, seeds)
    if f < f_empty - 1e-9:
        errs.append(f"{name}: F(S)={f} below F(empty)={f_empty}")
    info = ctx.info.get(name, {})
    if "trace_last" in info and not _close(info["trace_last"], f):
        errs.append(f"{name}: greedy trace {info['trace_last']} != exact F(S) {f}")
    if "options" in info:
        if not _close(f, max(info["options"])):
            errs.append(f"{name}: F(S#)={f} is not the best of {info['options']}")
        if not 0 < info["ratio"] <= 1:
            errs.append(f"{name}: ratio {info['ratio']} outside (0, 1]")
    return f - f_empty, errs


def oracle_score(graph, target: int, t: int, score: str, seeds) -> float:
    """F(S) recomputed in DuckDB: t FJ steps as SQL, then the score as SQL."""
    g = graph.with_seeds(target, seeds)
    con = duckdb.connect()
    try:
        con.register("edges", g.edges_pdf())
        con.register("s0", g.state_pdf())
        for i in range(t):
            con.execute(
                f"""
                CREATE TABLE s{i + 1} AS
                SELECT s.node, s.cand,
                       (1 - s.d) * COALESCE(a.agg, 0) + s.d * s.b0 AS b, s.b0, s.d
                FROM s{i} s LEFT JOIN (
                    SELECT e.dst AS node, p.cand, SUM(e.w * p.b) AS agg
                    FROM edges e JOIN s{i} p ON e.src = p.node
                    GROUP BY e.dst, p.cand
                ) a USING (node, cand)
                """
            )
        final = f"s{t}"
        if score == "cumulative":
            sql = f"SELECT SUM(b) FROM {final} WHERE cand = {target}"
        elif score == "plurality":
            # β(b_qv) = #{x : b_xv ≥ b_qv}; plurality counts users with β ≤ 1.
            sql = f"""
                SELECT COUNT(*) FROM (
                    SELECT q.node
                    FROM {final} q JOIN {final} o USING (node)
                    WHERE q.cand = {target}
                    GROUP BY q.node
                    HAVING SUM(CASE WHEN o.b >= q.b THEN 1 ELSE 0 END) <= 1
                )
            """
        else:
            raise ValueError(f"no oracle SQL for score {score}")
        return float(con.execute(sql).fetchone()[0] or 0.0)
    finally:
        con.close()


def oracle_matches(a: float, b: float) -> bool:
    """``repro.oracle``'s tolerance: round to 6 decimals, then rtol 1e-5."""
    return math.isclose(round(a, 6), round(b, 6), rel_tol=1e-5, abs_tol=1e-8)


def resolve_target(wl: Workload, graph, t: int) -> int:
    if wl.target == "paper":
        return TARGETS[wl.dataset]
    return trailing_candidate(graph, t, wl.score)


def fj_timing(graph, t: int, reps: int = 5) -> float:
    """p50 wall time of one all-candidate ``fj_diffuse_np(graph, t)``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fj_diffuse_np(graph, t)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
