"""Append one entry to ``BENCH_efficiency.json`` from a run of
``benchmarks/bench_efficiency.py``.

    PYTHONPATH=src python benchmarks/record_efficiency.py [--out BENCH_efficiency.json]

Runs the benchmark file under pytest-benchmark with ``--benchmark-json``
and appends ``{commit, dirty, date, env, cases}`` to the JSON list in
``--out``: ``env`` is the CPU model, the core count, ``OPENBLAS_NUM_THREADS``
and the NumPy, OpenBLAS and Spark versions; ``cases`` maps each benchmark to
its rounds, median and IQR in seconds and its ``extra_info``.  Extra
arguments go to pytest (``-k``, for example).  Commit the code first: the
entry names the checkout's HEAD, and ``dirty`` marks uncommitted changes.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = "benchmarks/bench_efficiency.py"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


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
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "spark": pyspark.__version__,
    }


def _cases(report: dict) -> dict:
    return {
        b["name"]: {
            "rounds": b["stats"]["rounds"],
            "median_s": b["stats"]["median"],
            "iqr_s": b["stats"]["iqr"],
            "extra_info": b["extra_info"],
        }
        for b in report["benchmarks"]
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_efficiency.json")
    args, pytest_args = ap.parse_known_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "bench.json"
        cmd = [sys.executable, "-m", "pytest", BENCH, "-q", "-p", "no:cacheprovider",
               f"--benchmark-json={raw}", *pytest_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
            return 1
        report = json.loads(raw.read_text())
    entry = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "env": _env(),
        "cases": _cases(report),
    }
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"appended {len(entry['cases'])} cases for {entry['commit'][:12]} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
