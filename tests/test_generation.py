"""Sketch generation is a pure function of (graph, seed, sketch id).

For every sketch kind — RW walks, RS walks, IC RR sets, LT RR paths — the
Spark output equals the driver kernel array for array, also when each
partition holds several small Arrow batches, and a kernel called on split
id ranges equals one call on the whole range.
"""
import numpy as np
import pytest

from repro.baselines.im import generate_rr_sets, rr_sets
from repro.core.sketch import collect_sketches
from repro.graphs.generators import random_instance
from repro.opinion.walks import generate_walks, reverse_walks, stream_keys, uniforms

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


def _spark(spark, graph, kind):
    """The Spark DataFrame's sorted ids and its sketches, collected as
    ``_driver`` returns them."""
    if kind in ("ic", "lt"):
        df = generate_rr_sets(spark, graph, kind, COUNT, seed=SEED)
        order, column = "sketch_id", "nodes"
    else:
        size = {"lam": LAM} if kind == "rw" else {"theta": COUNT}
        df = generate_walks(spark, graph, 0, T, seed=SEED, **size)
        order, column = "walk_id", "path"
    nodes, offsets = collect_sketches(df, order, column)
    ids = np.sort(df.select(order).toArrow().column(0).to_numpy())
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


def test_uniforms_in_unit_interval_and_distinct_per_lane():
    keys = stream_keys(3, np.arange(20_000))
    draws = np.stack([uniforms(keys, step, lane) for step in range(3) for lane in range(4)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.005
    assert len(np.unique(draws)) == draws.size


@pytest.mark.parametrize("kind", KINDS)
def test_spark_equals_driver(spark, graph, kind):
    ids, cols = _spark(spark, graph, kind)
    np.testing.assert_array_equal(ids, np.arange(_count(graph, kind)))
    _assert_same(cols, _driver(graph, kind, ids))


@pytest.mark.parametrize("kind", KINDS)
def test_spark_equals_driver_with_small_batches(spark, graph, kind):
    """Seven ids per Arrow batch: every partition runs the kernel many times."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    spark.conf.set(key, "7")
    try:
        ids, cols = _spark(spark, graph, kind)
    finally:
        spark.conf.unset(key)
    assert _count(graph, kind) > 7 * spark.sparkContext.defaultParallelism
    _assert_same(cols, _driver(graph, kind, np.arange(_count(graph, kind))))


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
    # No session: the check must come before Spark is touched.
    with pytest.raises(ValueError, match="budget"):
        generate_walks(None, graph, 0, T, **{key: value})


@pytest.mark.parametrize("model", ["ic", "lt"])
def test_rr_budget_below_one_raises_before_any_job(graph, model):
    with pytest.raises(ValueError, match="budget"):
        generate_rr_sets(None, graph, model, 0)
