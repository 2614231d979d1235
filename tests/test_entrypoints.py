"""Every script under ``jobs/``, ``benchmarks/`` and ``perfbench/`` imports,
and the ``jobs/`` tables run at smoke size without starting a JVM.

These directories run in no other test, so a renamed or removed library
function would otherwise break them silently.  Each file is imported by
path under a unique module name, with its own directory on ``sys.path`` for
its sibling imports; no ``main()`` runs.  ``test_jobs_start_no_jvm_at_lite_budgets``
runs the ``main()`` of the jobs that select seeds, in a fresh process.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("jobs", "benchmarks", "perfbench")
SCRIPTS = sorted(p for d in DIRS for p in (ROOT / d).glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_script_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(path.parent))
    name = f"_entrypoint_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    before = set(sys.modules)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        # Sibling modules (``run``, ``spans``, …) leave with the test.
        dirs = {ROOT / d for d in DIRS}
        for key in set(sys.modules) - before:
            if Path(getattr(sys.modules[key], "__file__", None) or "/").parent in dirs:
                del sys.modules[key]


def test_every_directory_has_scripts():
    assert {p.parent.name for p in SCRIPTS} == set(DIRS)


# Smoke-size arguments; run_scores.py runs all nine methods and three scores.
SMOKE = {
    "run_scores.py": ["--dataset", "yelp-lite", "--nodes", "120", "--t", "5", "--ks", "2"],
    "run_table6.py": ["--dataset", "yelp-lite", "--nodes", "120", "--t", "5", "--k-max", "8"],
    "run_sandwich.py": ["--dataset", "yelp-lite", "--nodes", "120", "--t", "5", "--ks", "2"],
    "run_table4.py": ["--n", "120", "--k", "4", "--t", "5"],
}

CHILD = """
import json, runpy, sys
import pyspark
from repro.opinion import walks

def kernel(ids):
    raise AssertionError("a kernel ran on a budget below 1")

raised = []
for call in (lambda: walks.sketches(0, kernel, walks.WALK_COLUMNS, 0),
             lambda: walks.map_id_range(0, kernel, walks.WALK_COLUMNS)):
    try:
        call()
    except ValueError:
        raised.append(pyspark.SparkContext._gateway is None)
for path, args in json.loads(sys.argv[1]).items():
    sys.argv = [path, *args]
    runpy.run_path(path, run_name="__main__")
print(json.dumps({"raised": raised, "no_jvm": pyspark.SparkContext._gateway is None}))
"""


def test_jobs_start_no_jvm_at_lite_budgets():
    """At lite budgets the jobs print their tables and never start a JVM,
    and a sketch budget below 1 raises before any session exists."""
    jobs = {str(ROOT / "jobs" / name): args for name, args in SMOKE.items()}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(jobs)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    for header in ("Score comparison", "Table VI", "Sandwich ratios", "Table IV"):
        assert header in run.stdout
    assert json.loads(run.stdout.splitlines()[-1]) == {"raised": [True, True], "no_jvm": True}
