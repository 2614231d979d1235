"""Layering guard: which modules of ``src/repro`` may import pyspark."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# Spark stays where it partitions real work: walk, sketch and RR-set
# generation.  Everything else, exact DM evaluation included, is NumPy on
# the driver, so a new Spark dependency has to be added here on purpose.
SPARK_MODULES = {
    "opinion/walks.py",
    "baselines/im.py",
    "core/sketch.py",
    "core/rw.py",
    "core/rs.py",
}


def _imports_pyspark(path: Path) -> bool:
    """Whether any import statement in ``path``, at any depth, names pyspark."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "pyspark" or n.startswith("pyspark.") for n in names):
            return True
    return False


def test_only_allowed_modules_import_pyspark():
    found = {
        p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if _imports_pyspark(p)
    }
    assert found == SPARK_MODULES


# The score rule lives in voting/scores.py: every other module scores
# opinions through score_rows / score_change / score_np, never through the
# per-user primitives.
RULE_PRIMITIVES = {"duels", "unit_contribution"}


def _calls(path: Path) -> set[str]:
    """Names of the functions ``path`` calls, as ``f(...)`` or ``mod.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            fn = node.func
            names.add(fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None))
    return names


def test_only_scores_calls_the_rule_primitives():
    found = {
        p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if _calls(p) & RULE_PRIMITIVES
    }
    assert found == {"voting/scores.py"}


def test_only_graph_and_dm_call_out_edges():
    """One frontier BFS: reachability goes through ``graphs.graph.reach``.
    ``core/dm.py`` reads ``out_edges`` only for the edges between its
    (candidate, node) pairs."""
    found = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if "out_edges" in _calls(p)}
    assert found == {"graphs/graph.py", "core/dm.py"}
