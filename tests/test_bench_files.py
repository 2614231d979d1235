"""``BENCH_efficiency.json`` parses and every entry has the recorded fields.

The file is written by ``benchmarks/record_efficiency.py``; no benchmark
runs here.  Entries recorded from several runs per side list every run's
median under ``runs``, and ``median_s`` is their median.
"""
import json
import re
import statistics
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV_KEYS = {"cpu", "cores", "openblas_num_threads", "numpy", "openblas", "spark"}


def test_efficiency_entries_have_commit_env_and_cases():
    entries = json.loads((ROOT / "BENCH_efficiency.json").read_text())
    assert isinstance(entries, list) and entries
    for e in entries:
        assert re.fullmatch(r"[0-9a-f]{40}", e["commit"])
        assert isinstance(e["dirty"], bool)
        assert ENV_KEYS <= set(e["env"])
        if "cpus" in e["env"]:  # recorded since the layered kernel runs on threads
            assert 1 <= e["env"]["cpus"] <= e["env"]["cores"]
        assert e["cases"]
        for name, case in e["cases"].items():
            assert name.startswith("test_"), name
            assert isinstance(case["rounds"], int) and case["rounds"] >= 1
            for key in ("median_s", "iqr_s"):
                assert isinstance(case[key], Real) and case[key] >= 0, (name, key)
            assert isinstance(case["extra_info"], dict)
            if "runs" in case:
                runs = case["runs"]
                assert runs and all(isinstance(r, Real) and r >= 0 for r in runs), name
                assert case["median_s"] == statistics.median(runs), name
