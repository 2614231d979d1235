"""Layering guards over ``src/repro``: which modules may import pyspark, call
the score-rule primitives or ``out_edges``, contain an ``assert`` or multiply
matrices, and that a job, harness or benchmark reaches every module."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

# Spark stays where it partitions real work: RR-set generation above its
# measured crossover.  The driver path (``driver_sketches``), the dispatch
# (``sketches``) and the Spark transport (``map_id_range`` out,
# ``collect_sketches`` back) live in opinion/walks.py.  Everything else, the RR-set kernels,
# RW/RS and exact DM evaluation included, is NumPy on the driver, so a new
# Spark dependency has to be added here on purpose.
SPARK_MODULES = {"opinion/walks.py"}


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


def _asserts(path: Path) -> bool:
    """Whether ``path`` contains an ``assert`` statement."""
    return any(isinstance(n, ast.Assert) for n in ast.walk(ast.parse(path.read_text())))


def test_only_the_oracle_asserts():
    """``python -O`` strips asserts, so program code checks its arguments by
    raising; only the DuckDB oracle, whose job is asserting, uses them."""
    found = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if _asserts(p)}
    assert found == {"oracle.py"}


# Matrix products run only where the generators build instances.  Every
# exact FJ kernel gathers and adds in a fixed order instead, so no exact
# result depends on the BLAS build or its thread count.
PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner"}


def _multiplies_matrices(path: Path) -> bool:
    """Whether ``path`` uses ``@`` or calls one of ``PRODUCTS``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    matmul = any(isinstance(node, ast.MatMult) for node in ast.walk(tree))
    return matmul or bool(_calls(path) & PRODUCTS)


def test_only_generators_multiply_matrices():
    found = {
        p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if _multiplies_matrices(p)
    }
    assert found <= {"graphs/generators.py"}


GRAPH = SRC / "graphs" / "graph.py"


def _graph_private_fields() -> set[str]:
    """``OpinionGraph``'s underscore fields, read from graph.py's AST."""
    tree = ast.parse(GRAPH.read_text(), filename=str(GRAPH))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "OpinionGraph")
    return {
        n.target.id
        for n in cls.body
        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
        and n.target.id.startswith("_")
    }


def _attributes(path: Path) -> set[str]:
    """Every ``x.name`` attribute name ``path`` reads or writes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_only_graph_names_its_private_fields():
    """A result kept on a graph goes through ``OpinionGraph.kept``: no other
    module reads or writes the graph's private fields."""
    fields = _graph_private_fields()
    assert fields  # the class and its fields were found
    found = {
        p.relative_to(SRC).as_posix()
        for p in SRC.rglob("*.py")
        if p != GRAPH and _attributes(p) & fields
    }
    assert found == set()


# The entry points whose imports must reach every module: code that no job,
# harness or benchmark runs is deleted, not kept for later.
ENTRY_DIRS = ("jobs", "perfbench", "benchmarks")


def _imported(path: Path):
    """Module names ``path`` imports; ``from pkg import name`` names both
    ``pkg`` and ``pkg.name``, which is a module when ``name`` is one."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _source(name: str) -> Path | None:
    """The file under ``src/repro`` that defines module ``name``, if any."""
    parts = name.split(".")
    if parts[0] != "repro":
        return None
    base = SRC.joinpath(*parts[1:])
    return next((p for p in (base.with_suffix(".py"), base / "__init__.py") if p.is_file()), None)


def test_every_module_is_reached():
    todo = [p for d in ENTRY_DIRS for p in sorted((ROOT / d).glob("*.py"))]
    reached = set()
    while todo:
        for name in _imported(todo.pop()):
            path = _source(name)
            if path is not None and path not in reached:
                reached.add(path)
                todo.append(path)
    unreached = {
        p.relative_to(SRC).as_posix()
        for p in SRC.rglob("*.py")
        if p not in reached and p.name != "__init__.py"
    }
    # oracle.py is the tests' DuckDB reference: only tests need reach it.
    assert unreached <= {"oracle.py"}
