"""DuckDB correctness oracle.

``assert_equivalent(got, sql, **tables)`` runs ``sql`` in DuckDB over the
pandas ``tables`` and asserts that its sorted rows match ``got``, a pandas
frame built from the NumPy kernel under test.  The SQL restates the
paper's definition (an FJ step, a rank, a duel, a reachable set) without
sharing any code with the kernel, so "it ran" is not taken for "it is
correct".

Alias every SQL output column with the name ``got`` uses and project to
scalar columns: array/map/struct columns are not orderable, so they cannot
be compared here.  Floats are compared after rounding to 6 decimals; to
compare bit for bit, project an exact integer image of them.
"""
import duckdb
import numpy as np
import pandas as pd


def opinions_pdf(b: np.ndarray) -> pd.DataFrame:
    """An (r, n) opinion matrix as the long table ``(node, cand, b)``."""
    r, n = b.shape
    return pd.DataFrame(
        {
            "node": np.tile(np.arange(n, dtype="int64"), r),
            "cand": np.repeat(np.arange(r, dtype="int64"), n),
            "b": b.ravel(),
        }
    )


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(got: pd.DataFrame, sql: str, **tables: pd.DataFrame) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
