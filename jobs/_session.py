"""Shared SparkSession builder for the job entrypoints.

``spark.driver.memory`` must be set before the JVM launches, so it goes
into ``PYSPARK_SUBMIT_ARGS`` at import time.  Spark runs RR-set generation
only (``spark.range(...).mapInArrow``, collected with ``toArrow``), and only
for a budget above ``baselines.im.RR_DRIVER_MAX``; reverse walks are always
made on the driver.  At the lite budgets these jobs use, they start no
generation job; the session is still built, since ``repro`` takes it as
an argument.  Nothing shuffles, joins or converts through pandas, so the
session needs no SQL settings.  Greedy rounds and exact evaluation run in
Python.  The largest jobs here (``run_scores.py`` on dblp-lite, and on
twitter-sd-lite with ``--ks 10 40 --theta 13000``) peaked at ~320 MB of
used heap and ~730 MB resident on a 4-core host when Spark generated their
sketches, so the default is 2g.  Override with ``SPARK_DRIVER_MEM``.
"""
import os

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '2g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    return SparkSession.builder.appName(app).getOrCreate()
