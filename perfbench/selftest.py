"""Self-test: every workload at smoke size emits every declared metric.

    python3 perfbench/selftest.py

Runs each workload of ``BENCHMARK.json`` untraced and traced at n = 200,
k = 2, t = 4 in one Spark session, and checks that the result line names
exactly the declared end-to-end (untraced) or per-layer (traced) metrics,
each with its declared unit, and that no selection or check failed.
The file name keeps it out of pytest's ``test_*.py`` / ``bench_*.py``
collection, so a bare ``pytest`` never starts a benchmark.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def check(result: dict, declared: list[dict], label: str) -> list[str]:
    errs = []
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    if set(got) != set(want):
        errs.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                    f"undeclared {sorted(set(got) - set(want))}")
    errs += [f"{label}: {n} has unit {got[n]}, declared {u}"
             for n, u in want.items() if n in got and got[n] != u]
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        errs.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    return errs


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tmp = run.OUT / "tmp-selftest"
    run.configure_env(tmp)
    import workloads as W

    spark, up_s, warm_s = run.start_spark(tmp)
    errs = []
    try:
        env = run.run_env(spark)
        for wl in spec["workloads"]:
            kw = dict(seed=0, graph_seed=0, params=W.TINY,
                      spark_s=up_s + warm_s, env=env)
            plain, _ = run.run_workload(spark, wl["name"], trace=False, **kw)
            errs += check(plain, spec["end_to_end"], f"{wl['name']} trace 0")
            traced, _ = run.run_workload(spark, wl["name"], trace=True, **kw)
            errs += check(traced, spec["per_layer"], f"{wl['name']} trace 1")
    finally:
        run.stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    for e in errs:
        print(e, file=sys.stderr)
    print("selftest:", "FAILED" if errs else "ok")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
