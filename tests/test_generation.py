"""Sketch generation is a pure function of (graph, seed, sketch id).

For every sketch kind — RW walks, RS walks, IC RR sets, LT RR sets — the
Spark output equals the driver kernel array for array, also when each
partition holds several small Arrow batches, and a kernel called on split
id ranges equals one call on the whole range.  Spark's rows are read in the
order it returns them: ``collect_sketches`` does not sort, so that order
must be the id order.  The sketch consumers (``SketchSelector`` for RW/RS,
``rr_sketches`` for IC/LT) read those same arrays.  Walks are always made
on the driver; RR sets start one Spark job only above ``RR_DRIVER_MAX``.
"""
import numpy as np
import pandas as pd
import pytest

import repro.baselines.im as im
import repro.opinion.walks as walks
from repro.baselines.im import generate_rr_sets, rr_sets, rr_sketches
from repro.core.sketch import SketchSelector
from repro.graphs.generators import random_instance
from repro.opinion.walks import (
    LANES,
    WALK_COLUMNS,
    collect_sketches,
    driver_sketches,
    map_id_range,
    reverse_walks,
    sketches,
    stream_keys,
    uniforms,
    walk_kernel,
)
from repro.oracle import assert_equivalent

KINDS = ["rw", "rs", "ic", "lt"]
T, SEED, LAM, COUNT = 5, 9, 7, 500


@pytest.fixture(scope="module")
def graph():
    return random_instance(60, r=2, seed=21, avg_deg=3.0)


def _count(graph, kind):
    return graph.n * LAM if kind == "rw" else COUNT


def _driver(graph, kind, ids):
    """The kernel's sketches for ``ids`` as ``{nodes, offsets}``."""
    if kind in ("ic", "lt"):
        nodes, offsets = rr_sets(graph.reverse_alias(), graph.w, kind, SEED, ids)
    else:
        lam = LAM if kind == "rw" else None
        nodes, offsets = reverse_walks(graph.reverse_alias(), graph.d[0], SEED, ids, T, lam=lam)
    return {"nodes": nodes, "offsets": offsets}


def _spark(graph, kind):
    """The Spark DataFrame's ids, in the order Spark returns them, and its
    sketches, collected as ``_driver`` returns them."""
    if kind in ("ic", "lt"):
        df = generate_rr_sets(None, graph, kind, COUNT, seed=SEED)
    else:
        size = {"lam": LAM} if kind == "rw" else {"theta": COUNT}
        kernel, count = walk_kernel(graph, 0, T, seed=SEED, **size)
        df = map_id_range(count, kernel, WALK_COLUMNS)
    nodes, offsets = collect_sketches(df)
    ids = df.toArrow().column(0).to_numpy()
    return ids, {"nodes": nodes, "offsets": offsets}


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for col in a:
        assert a[col].dtype == b[col].dtype, col
        np.testing.assert_array_equal(a[col], b[col], err_msg=col)


def test_splitmix64_reference_outputs():
    """Stream keys are SplitMix64's published outputs for seed 0 and 1234567."""
    assert stream_keys(0, np.arange(3)).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    assert stream_keys(1234567, np.arange(3)).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
    ]


# SplitMix64 restated in DuckDB SQL over UBIGINT.  DuckDB has no wrapping
# 64-bit multiply: ``mul64`` splits both operands into 32-bit halves and drops
# the high-times-high product, a multiple of 2^64, so the rest (below 2^98)
# fits a HUGEINT; it then reduces mod 2^64.
SPLITMIX64 = """
CREATE MACRO mul64(a, b) AS ((
    (a::HUGEINT % 4294967296) * (b::HUGEINT % 4294967296)
    + ((a::HUGEINT // 4294967296) * (b::HUGEINT % 4294967296)
       + (a::HUGEINT % 4294967296) * (b::HUGEINT // 4294967296)) * 4294967296
) % 18446744073709551616)::UBIGINT;
CREATE MACRO add64(a, b) AS ((a::HUGEINT + b::HUGEINT) % 18446744073709551616)::UBIGINT;
"""


def _splitmix64_sql(rows: str, keep: str) -> str:
    """Output ``i`` of SplitMix64 seeded with ``state``, as ``z``, for each
    row of the relation ``rows``, carrying its columns ``keep``."""
    return f"""
    SELECT {keep}, xor(z, z >> 31) AS z FROM (
    SELECT {keep}, mul64(xor(z, z >> 27), {0x94D049BB133111EB}) AS z FROM (
    SELECT {keep}, mul64(xor(z, z >> 30), {0xBF58476D1CE4E5B9}) AS z FROM (
    SELECT {keep}, add64(state, mul64(i + 1, {0x9E3779B97F4A7C15})) AS z FROM {rows})))"""


def _stream_keys_sql(seed: int) -> str:
    """``(id, key)`` for each id of ``ids``: output ``id`` of SplitMix64(seed)."""
    rows = f"(SELECT id, {seed}::UBIGINT AS state, id::UBIGINT AS i FROM ids)"
    return f"SELECT id, z AS key FROM ({_splitmix64_sql(rows, 'id')})"


def _uniforms_sql(seed: int) -> str:
    """``(id, step, lane, u)`` for each id of ``ids`` and row of ``draws``:
    output ``4·step + lane`` of SplitMix64(key), top 53 bits scaled to [0, 1)."""
    rows = f"""(SELECT id, step, lane, key AS state, (4 * step + lane)::UBIGINT AS i
        FROM ({_stream_keys_sql(seed)}) CROSS JOIN draws)"""
    return f"""SELECT id, step, lane, (z >> 11)::DOUBLE * pow(2, -53) AS u
        FROM ({_splitmix64_sql(rows, 'id, step, lane')})"""


def test_splitmix64_matches_duckdb_bit_for_bit():
    """Stream keys and the uniforms of every lane at several steps equal their
    DuckDB restatement exactly: a uniform is compared as u·2⁵³, an integer."""
    seed = 1234567
    ids = np.concatenate([np.arange(286), [2**31, 2**32 + 5, 2**62, 2**63 - 1]])
    keys = stream_keys(seed, ids)
    id_table = pd.DataFrame({"id": ids})
    got = pd.DataFrame({"id": ids, "key": keys})
    assert_equivalent(got, SPLITMIX64 + _stream_keys_sql(seed), ids=id_table)

    draws = pd.DataFrame([(s, lane) for s in (0, 1, 7, 19) for lane in range(LANES)],
                         columns=["step", "lane"])
    got = pd.concat(
        pd.DataFrame({"id": ids, "step": s, "lane": lane,
                      "u53": (uniforms(keys, s, lane) * 2.0**53).astype(np.int64)})
        for s, lane in draws.itertuples(index=False)
    )
    sql = f"SELECT id, step, lane, (u * pow(2, 53))::BIGINT AS u53 FROM ({_uniforms_sql(seed)})"
    assert_equivalent(got, SPLITMIX64 + sql, ids=id_table, draws=draws)


def test_uniforms_in_unit_interval_and_distinct_per_lane():
    keys = stream_keys(3, np.arange(20_000))
    draws = np.stack([uniforms(keys, step, lane) for step in range(3) for lane in range(4)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.005
    assert len(np.unique(draws)) == draws.size


@pytest.mark.usefixtures("spark")
@pytest.mark.parametrize("kind", KINDS)
def test_spark_equals_driver(graph, kind):
    ids, cols = _spark(graph, kind)
    np.testing.assert_array_equal(ids, np.arange(_count(graph, kind)))
    _assert_same(cols, _driver(graph, kind, ids))


@pytest.mark.parametrize("kind", KINDS)
def test_spark_equals_driver_with_small_batches(spark, graph, kind):
    """Seven ids per Arrow batch: every partition runs the kernel many times."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    spark.conf.set(key, "7")
    try:
        ids, cols = _spark(graph, kind)
    finally:
        spark.conf.unset(key)
    assert _count(graph, kind) > 7 * spark.sparkContext.defaultParallelism
    np.testing.assert_array_equal(ids, np.arange(_count(graph, kind)))
    _assert_same(cols, _driver(graph, kind, ids))


@pytest.mark.parametrize("kind", KINDS)
def test_split_ranges_equal_one_call(graph, kind):
    count = _count(graph, kind)
    whole = _driver(graph, kind, np.arange(count))
    parts = [_driver(graph, kind, ids) for ids in np.split(np.arange(count), [1, 97, 250])]
    joined = {c: np.concatenate([p[c] for p in parts]) for c in whole if c != "offsets"}
    sizes = np.concatenate([np.diff(p["offsets"]) for p in parts])
    joined["offsets"] = np.concatenate([[0], np.cumsum(sizes)])
    _assert_same(joined, whole)


@pytest.mark.parametrize("key, value", [("lam", 0), ("lam", -1), ("theta", 0), ("theta", -5)])
def test_walk_budget_below_one_raises_before_any_job(graph, key, value):
    # The check must come before Spark is touched; ``test_entrypoints``
    # checks it in a process with no session.
    kernel, count = walk_kernel(graph, 0, T, **{key: value})
    with pytest.raises(ValueError, match="budget"):
        map_id_range(count, kernel, WALK_COLUMNS)


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_rr_budget_below_one_raises_before_any_job(graph, model):
    with pytest.raises(ValueError, match="budget"):
        generate_rr_sets(None, graph, model, 0)


def _consumer(graph, kind):
    """The ``SketchSet`` that RW/RS (``SketchSelector``) or IC/LT
    (``rr_sketches``) build for ``kind``."""
    if kind in ("ic", "lt"):
        return rr_sketches(graph, kind, COUNT, seed=SEED)
    size = {"lam": LAM} if kind == "rw" else {"theta": COUNT}
    return SketchSelector(graph, 0, T, "cumulative", seed=SEED, **size).sketches


def _jobs(spark, group, make):
    """``make()`` and the number of Spark jobs it started (job group ``group``)."""
    sc = spark.sparkContext
    try:
        sc.setJobGroup(group, group)
        made = make()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return made, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize("kind", KINDS)
def test_consumers_equal_spark_at_lite_budgets(spark, graph, kind):
    """A lite budget runs on the driver, starts no job and reads the
    collected Spark DataFrame's arrays."""
    assert kind in ("rw", "rs") or COUNT <= im.RR_DRIVER_MAX
    got, jobs = _jobs(spark, f"driver-{kind}", lambda: _consumer(graph, kind))
    assert jobs == 0
    _, want = _spark(graph, kind)
    _assert_same({"nodes": got.nodes, "offsets": got.offsets}, want)


@pytest.mark.parametrize("kind", ["ic", "lt"])
def test_rr_sketches_above_the_crossover_run_one_job(monkeypatch, spark, graph, kind):
    """With ``RR_DRIVER_MAX`` below the budget, ``rr_sketches`` starts
    exactly one job, reads the Spark arrays and picks the driver's seeds."""
    on_driver = _consumer(graph, kind)
    monkeypatch.setattr(im, "RR_DRIVER_MAX", COUNT - 1)
    on_spark, jobs = _jobs(spark, f"spark-{kind}", lambda: _consumer(graph, kind))
    assert jobs == 1
    _, want = _spark(graph, kind)
    _assert_same({"nodes": on_spark.nodes, "offsets": on_spark.offsets}, want)
    assert on_spark.select(6) == on_driver.select(6)


@pytest.mark.parametrize("kind", KINDS)
def test_driver_blocks_equal_one_call(monkeypatch, graph, kind):
    """64-id blocks over a count that is no multiple of 64: the last block
    is short, and the joined arrays equal one kernel call on every id."""
    monkeypatch.setattr(walks, "DRIVER_BLOCK", 64)
    count, calls = _count(graph, kind), []

    def kernel(ids):
        calls.append(len(ids))
        return tuple(_driver(graph, kind, ids).values())

    nodes, offsets = driver_sketches(count, kernel)
    assert calls == [64] * (count // 64) + [count % 64] and count % 64
    _assert_same({"nodes": nodes, "offsets": offsets}, _driver(graph, kind, np.arange(count)))


@pytest.mark.parametrize("driver_max", [0, 1 << 30])
@pytest.mark.parametrize("count", [0, -3])
def test_sketches_budget_below_one_raises_before_either_path(driver_max, count):
    calls = []
    with pytest.raises(ValueError, match="budget"):
        sketches(count, calls.append, walks.WALK_COLUMNS, driver_max)
    assert calls == []
