#!/usr/bin/env python3
"""Tiny-fleet self-test of every benchmark workload.

    python3 perfbench/selftest.py

Builds the benchmark, then runs each workload of BENCHMARK.json on a
3000-user fleet, once untraced and once traced, and checks that each
run emits every BENCHMARK.json metric of its kind with its unit and a
finite value, that no report failed, that the shapes match core::PrivShape
on every protocol run, that the build stamp is complete, and that the
traced run wrote chrome://tracing spans named after layer metrics. Exits
non-zero on the first workload that fails any check. Takes about a minute.
"""

import json
import math
import sys

import run as bench

TINY = {"users": 3000, "pool": 600, "setups": 1}
STAMP_KEYS = {"nproc", "compiler", "build_type", "ndebug", "simd", "git_rev",
              "seed", "users", "pool"}


def problems_of(doc, spec, trace, trace_file):
    problems = []
    try:
        bench.check_metrics(doc, spec, trace)
    except RuntimeError as err:
        problems.append(str(err))
    bad = [n for n, m in doc["metrics"].items()
           if not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])]
    if bad:
        problems.append(f"non-finite values: {bad}")
    if doc["attempted"] < 1 or doc["failed"] != 0:
        problems.append(f"failed_frac != 0: {doc['failed']} of "
                        f"{doc['attempted']}")
    if not doc["correct"]:
        problems.append("shapes differ from core::PrivShape")
    missing = STAMP_KEYS - set(doc["stamp"])
    if missing:
        problems.append(f"stamp lacks {sorted(missing)}")
    if trace:
        with open(trace_file, encoding="utf-8") as f:
            names = {e["name"] for e in json.load(f)["traceEvents"]}
        layer_names = {m["name"] for m in spec["per_layer"]}
        if not names & layer_names:
            problems.append("trace file has no layer spans")
    return problems


def main():
    spec = bench.load_json(bench.ROOT / "BENCHMARK.json")
    table = bench.workloads()
    binary = bench.build()
    out_dir = bench.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            trace_file = out_dir / f"selftest-{name}.json" if trace else None
            doc = bench.run_binary(binary, table[name], seed=7,
                                   seconds=0.2, trace=trace,
                                   trace_file=trace_file, overrides=TINY)
            problems = problems_of(doc, spec, trace, trace_file)
            verdict = "; ".join(problems) if problems else "ok"
            print(f"selftest {name} trace={trace}: {verdict} "
                  f"({len(doc['metrics'])} metrics, {doc['runs']} runs)")
            if problems:
                return 1
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
