"""Append entries to ``BENCH_efficiency.json`` from runs of
``benchmarks/bench_efficiency.py``.

    python benchmarks/record_efficiency.py [--parent REV] [--pairs N] [--out FILE]

Runs the benchmark file under pytest-benchmark with ``--benchmark-json``,
``--pairs`` times (default 1), and appends ``{commit, dirty, date, env,
cases}`` to the JSON list in ``--out``: ``env`` is the CPU model, the core
count, ``OPENBLAS_NUM_THREADS`` and the NumPy, OpenBLAS and Spark versions;
``cases`` maps each benchmark to its rounds per run, ``runs`` (every run's
median, in seconds), ``median_s`` (the median of ``runs``), ``iqr_s`` (the
median of the runs' IQRs over their rounds) and the last run's
``extra_info``.

``--parent REV`` extracts REV's ``src/`` with ``git archive`` into a
temporary directory (removed afterwards) and alternates the runs between it
and the checkout, the first side swapping from pair to pair; it appends
REV's entry, then the checkout's.  Both sides run the checkout's benchmark
file, so they time the same cases.  Extra arguments go to pytest (``-k``,
for example).  Commit the code first: the checkout's entry names HEAD, and
``dirty`` marks uncommitted changes.
"""
from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = "benchmarks/bench_efficiency.py"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _extract_src(rev: str, dest: Path) -> None:
    """``git archive`` REV's ``src/`` into ``dest``."""
    tar = subprocess.run(
        ["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _env() -> dict:
    import numpy as np
    import pyspark

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "cpus": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "spark": pyspark.__version__,
    }


def _run(src: Path, pytest_args: list[str]) -> list[dict] | None:
    """One run of the benchmark file against the ``repro`` package under
    ``src``: pytest-benchmark's per-case records, or None if pytest failed."""
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "bench.json"
        cmd = [sys.executable, "-m", "pytest", BENCH, "-q", "-p", "no:cacheprovider",
               f"--benchmark-json={raw}", *pytest_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
            return None
        return json.loads(raw.read_text())["benchmarks"]


def _cases(runs: list[list[dict]]) -> dict:
    """Each case's rounds, per-run medians, their median, the median IQR and
    the last run's ``extra_info``."""
    cases = {}
    for b in runs[-1]:
        stats = [next(c["stats"] for c in run if c["name"] == b["name"]) for run in runs]
        medians = [s["median"] for s in stats]
        cases[b["name"]] = {
            "rounds": b["stats"]["rounds"],
            "runs": medians,
            "median_s": statistics.median(medians),
            "iqr_s": statistics.median(s["iqr"] for s in stats),
            "extra_info": b["extra_info"],
        }
    return cases


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_efficiency.json")
    ap.add_argument(
        "--parent", metavar="REV", help="also time REV's src, alternating with the checkout"
    )
    ap.add_argument("--pairs", type=int, default=1, help="runs per side (default 1)")
    args, pytest_args = ap.parse_known_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = [("HEAD", ROOT / "src")]
    with tempfile.TemporaryDirectory() as tmp:
        if args.parent:
            _extract_src(args.parent, Path(tmp))
            sides.insert(0, (args.parent, Path(tmp) / "src"))
        runs: list[list] = [[] for _ in sides]
        for i in range(args.pairs):
            order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
            for j in order:
                report = _run(sides[j][1], pytest_args)
                if report is None:
                    return 1
                runs[j].append(report)
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    for (rev, src), side_runs in zip(sides, runs):
        entries.append({
            "commit": _git("rev-parse", f"{rev}^{{commit}}"),
            "dirty": dirty and src == ROOT / "src",
            "date": date,
            "env": _env(),
            "cases": _cases(side_runs),
        })
        print(f"appended {len(side_runs[-1])} cases x {len(side_runs)} runs "
              f"for {entries[-1]['commit'][:12]} to {args.out}")
    args.out.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
