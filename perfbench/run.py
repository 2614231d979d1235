"""Seed-selection benchmark: select time and exact seed quality per workload.

Run from the repository root:

    python3 perfbench/run.py --workload twitter-cumulative --seed 0 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the
per-layer ones.  The line before it (``{"report": ...}``) holds the
per-method detail: select time, exact gain and a hash of every seed list,
and the pinned run environment.  Both, plus the spans of a traced run, are
also written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Pinned, because RW/RS/IC/LT seeds depend on defaultParallelism.
MASTER = "local[4]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEM = "2g"
SETUP_REPS = 3  # graph build + alias tables, repeated; median reported
FLOOR_REPS = 5  # trivial one-stage jobs timed for spark.job_floor_s


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="RW/RS/IM RNG seed")
    ap.add_argument("--graph-seed", type=int, default=0,
                    help="offsets the dataset registry seed (0 = datasets.load)")
    # Accepted for the harness and ignored: a run is one fixed pass.
    ap.add_argument("--seconds", type=float, default=30.0, help="ignored")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_env(tmp: Path) -> None:
    """Pin Spark and make ``repro`` importable here and in Python workers."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no source tree at {SRC}; run from a repository checkout")
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEM}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + str(tmp))}",
            "pyspark-shell",
        ]
    )
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def start_spark(tmp: Path):
    """SparkSession up + one warm-up job; returns (spark, up_s, warmup_s)."""
    from pyspark.sql import SparkSession

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    t1 = time.perf_counter()
    # Warm-up job: one task per core, so every Python worker is up.
    par = spark.sparkContext.defaultParallelism
    spark.range(0, par, numPartitions=par).mapInPandas(lambda it: it, "id long").collect()
    return spark, t1 - t0, time.perf_counter() - t1


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def jvm_peak_rss_mb(spark) -> float:
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    if proc is None:
        return 0.0
    try:
        with open(f"/proc/{proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_env(spark) -> dict:
    sc = spark.sparkContext
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain checkout, not a git repository
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "show_console_progress": sc.getConf().get("spark.ui.showConsoleProgress"),
        "cores": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "spark_version": spark.version,
    }


def _p(vals, q: float) -> float:
    """Percentile ``q`` (0–100) by nearest rank; 0.0 for no samples."""
    if not vals:
        return 0.0
    s = sorted(vals)
    return float(s[max(0, math.ceil(q / 100 * len(s)) - 1)])


def run_workload(spark, name, *, seed, graph_seed, trace, params, spark_s, env,
                 spans_path=None) -> tuple[dict, dict]:
    """One benchmark run on a live session; returns (result line, report).

    A traced run writes its spans to ``spans_path`` when one is given.
    """
    import workloads as W
    from spans import Tracer

    wl = W.WORKLOADS[name]
    k = params.k or wl.k
    t = params.t

    loads, aliases = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        graph = W.make_graph(wl.dataset, graph_seed, params.nodes)
        t1 = time.perf_counter()
        graph.reverse_alias()
        loads.append(t1 - t0)
        aliases.append(time.perf_counter() - t1)

    setup_s = spark_s + statistics.median(a + b for a, b in zip(loads, aliases))
    target = W.resolve_target(wl, graph, t)
    ctx = W.Ctx(spark, graph, target, t, k, wl.score, seed, params)

    # One pass: every method once in a fresh session, which is what a job
    # pays.  A method that raises or loses Spark tasks fails its seed lists
    # and the run goes on, so the other methods are still measured.
    tracer = Tracer() if trace else None
    ctx.tracer = tracer
    select, selections, failures, failed_names = {}, {}, [], set()
    t0 = time.perf_counter()
    for m in wl.methods:
        select[m], seeds_m, errs = W.run_method(ctx, m)
        selections.update(seeds_m)
        if errs:
            failures.extend(errs)
            failed_names.update(W.SELECTIONS[m])
    pass_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    f_empty = W.exact_score(graph, target, t, wl.score, [])
    gains = {}
    for sel_name, seeds in selections.items():
        gains[sel_name], errs = W.check_selection(ctx, sel_name, seeds, f_empty)
        if errs:
            failed_names.add(sel_name)
            failures.extend(errs)
    check_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    f_sql = f_np = None
    if "DM" in selections:
        f_sql = W.oracle_score(graph, target, t, wl.score, selections["DM"])
        f_np = W.exact_score(graph, target, t, wl.score, selections["DM"])
        oracle_ok = W.oracle_matches(f_sql, f_np)
        if not oracle_ok:
            failures.append(f"oracle: DuckDB F(DM)={f_sql} vs NumPy {f_np}")
    else:
        oracle_ok = False
        failures.append("oracle: no DM seeds to check")
    oracle_s = time.perf_counter() - t0

    attempted = sum(len(W.SELECTIONS[m]) for m in wl.methods) + 1
    failed = len(failed_names) + (0 if oracle_ok else 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": name,
        "seed": seed,
        "graph_seed": graph_seed,
        "dataset": wl.dataset,
        "score": wl.score,
        "n": graph.n,
        "m": graph.m,
        "t": t,
        "k": k,
        "target": target,
        "env": env,
        "select_s": select,
        "selections": {
            s: {"sha": W.seeds_sha(v), "gain": gains[s], "seeds": [int(x) for x in v]}
            for s, v in selections.items()
        },
        "oracle": {"selection": "DM", "duckdb": f_sql, "numpy": f_np},
        "failures": failures,
    }

    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "select_s": (sum(select.values()), "s"),
            "gain": (sum(gains.get(x, 0.0) for x in W.PAPER_METHODS), "score"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics, detail = _layer_metrics(
            W, ctx, tracer, spark, graph,
            select=select, pass_wall=pass_wall, gains=gains,
            loads=loads, aliases=aliases, spark_s=spark_s,
            check_s=check_s, oracle_s=oracle_s,
        )
        report["layers"] = detail
        if spans_path is not None:
            tracer.dump(spans_path)
            report["spans"] = str(spans_path)

    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }
    return result, report


def _layer_metrics(W, ctx, tracer, spark, graph, *, select, pass_wall, gains,
                   loads, aliases, spark_s, check_s, oracle_s) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run (see README.md for the mapping)."""
    sc = spark.sparkContext
    floor = []
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        sc.parallelize([0], 1).count()
        floor.append(time.perf_counter() - t0)
    k, t, lay = ctx.k, ctx.t, ctx.layer

    gen = sum(tracer.total(f"{m}.init") for m in ("RW", "RS"))
    gen += sum(tracer.total(f"{m}.rr_gen") for m in ("IC", "LT"))
    rounds = tracer.durations("RW.round") + tracer.durations("RS.round")
    round_time, n_rounds = sum(rounds), len(rounds)
    for m in ("IC", "LT"):
        if m in select:  # IM has no resumable select: price its rounds as a whole
            round_time += max(0.0, select[m] - tracer.total(f"{m}.rr_gen"))
            n_rounds += k
    evals = [s for s in tracer.spans if s["name"] == "dm.eval"]
    cands = sum(s["cands"] for s in evals)

    m = {
        "spark.start_s": (spark_s, "s"),
        "spark.job_floor_s": (statistics.median(floor), "s"),
        "graphs.load_s": (statistics.median(loads), "s"),
        "graphs.alias_s": (statistics.median(aliases), "s"),
        "fj.diffuse_s": (W.fj_timing(graph, t), "s"),
        "fj.flops": (2 * graph.m * graph.r * t, "count"),
        "exact.check_s": (check_s, "s"),
        "oracle.check_s": (oracle_s, "s"),
        "sketch.gen_s": (gen, "s"),
        "sketch.round_s": (round_time / n_rounds if n_rounds else 0.0, "s"),
        # Trace-only work (walk and RR-set counts, F̂, Spark status reads)
        # runs outside every method's timed region; this is its cost.
        "trace.overhead_s": (pass_wall - sum(select.values()), "s"),
        "jvm.peak_rss_mb": (jvm_peak_rss_mb(spark), "MB"),
    }

    def total(key, methods=W.METHODS):
        return sum(lay.get(key.format(x), 0) for x in methods)

    # Metrics are limited to what both workloads run, so none reads 0 on
    # one of them; per-method and single-workload values go to the report.
    for key in ("jobs", "stages", "tasks"):
        m[f"spark.{key}"] = (total(f"spark.{key}.{{}}"), "count")
    for x in ("DM", "RS"):
        m[f"spark.jobs.{x}"] = (lay.get(f"spark.jobs.{x}", 0), "count")
    m["walks.rows"] = (total("walks.rows.{}", ("RW", "RS")), "count")
    m["walks.path_nodes"] = (total("walks.path_nodes.{}", ("RW", "RS")), "count")
    m["rs.jobs_per_round"] = (lay.get("rs.jobs_per_round", 0.0), "count")
    m["rs.est_err"] = (lay.get("rs.est_err", 0.0), "ratio")
    m["dm.eval_calls"] = (len(evals), "count")
    m["dm.cands_evaluated"] = (cands, "count")
    m["dm.spark_calls"] = (sum(1 for s in evals if s["spark"]), "count")
    m["dm.celf_ratio"] = (cands / (k * graph.n) if evals else 0.0, "ratio")
    m["dm.cand_steps"] = (cands * t, "count")
    for x in ("DM", "RS"):
        m[f"gain.{x}"] = (gains.get(x, 0.0), "score")

    eval_s = tracer.durations("dm.eval")
    m["dm.eval_s.p50"] = (_p(eval_s, 50), "s")
    m["dm.eval_s.p95"] = (_p(eval_s, 95), "s")
    for x in ("DM", "RS"):
        m[f"select_s.{x}"] = (select.get(x, 0.0), "s")
    rs_rounds = tracer.durations("RS.round")
    m["rs.init_s"] = (tracer.total("RS.init"), "s")
    m["rs.round_s.p50"] = (_p(rs_rounds, 50), "s")
    m["rs.round_s.p95"] = (_p(rs_rounds, 95), "s")

    detail = {f"select_s.{x}": select[x] for x in select}
    detail |= {f"gain.{x}": g for x, g in gains.items()}
    detail |= {key: val for key, val in lay.items() if key.startswith("spark.")}
    for key in ("walks.rows", "walks.path_nodes"):
        detail |= {f"{key}.{x}": lay[f"{key}.{x}"] for x in ("RW", "RS") if f"{key}.{x}" in lay}
    for key in ("rw.jobs_per_round", "rw.est_err", "sandwich.ratio"):
        if key in lay:
            detail[key] = lay[key]
    if "RW" in select:
        rw_rounds = tracer.durations("RW.round")
        detail["rw.init_s"] = tracer.total("RW.init")
        detail["rw.round_s.p50"] = _p(rw_rounds, 50)
        detail["rw.round_s.p95"] = _p(rw_rounds, 95)
    for x in ("IC", "LT"):
        if x in select:
            detail[f"im.rr_gen_s.{x}"] = tracer.total(f"{x}.rr_gen")
            detail[f"im.rr_nodes.{x}"] = lay.get(f"im.rr_nodes.{x}", 0)
    if "sandwich" in select:
        for part in ("reach", "cover", "lb"):
            detail[f"sandwich.{part}_s"] = tracer.total(f"sandwich.{part}")
    if "centrality" in select:
        for part in ("rwr", "dc"):
            detail[f"centrality.{part}_s"] = tracer.total(f"centrality.{part}")
    return m, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = OUT / f"tmp-{os.getpid()}"
    configure_env(tmp)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}")
    spark, up_s, warm_s = start_spark(tmp)
    try:
        env = run_env(spark)
        stem = f"{args.workload}-seed{args.seed}-g{args.graph_seed}-trace{args.trace}"
        result, report = run_workload(
            spark, args.workload, seed=args.seed, graph_seed=args.graph_seed,
            trace=bool(args.trace), params=W.Params(),
            spark_s=up_s + warm_s, env=env, spans_path=OUT / f"{stem}.spans.json",
        )
        with open(OUT / f"{stem}.json", "w") as fh:
            json.dump({"result": result, "report": report}, fh, indent=1)
    finally:
        stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
