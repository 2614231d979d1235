"""Every script under ``jobs/``, ``benchmarks/`` and ``perfbench/`` imports.

These directories run in no other test, so a renamed or removed library
function would otherwise break them silently.  Each file is imported by
path under a unique module name, with its own directory on ``sys.path`` for
its sibling imports; no ``main()`` runs.
"""
import importlib.util
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
        # Sibling modules (``_session``, ``run``, …) leave with the test.
        dirs = {ROOT / d for d in DIRS}
        for key in set(sys.modules) - before:
            if Path(getattr(sys.modules[key], "__file__", None) or "/").parent in dirs:
                del sys.modules[key]


def test_every_directory_has_scripts():
    assert {p.parent.name for p in SCRIPTS} == set(DIRS)
