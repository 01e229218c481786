#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload trace-cluster --seed 1 \
        --seconds 10 --trace 0

Builds privshape_perfbench (Release) from the checkout into .bench_build/
on first use, runs the workload named in perfbench/workloads.json, prints
one line per metric (name, value, unit) and the build stamp, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with --trace 1
its per_layer list, and a chrome://tracing file is written to
.bench_out/. Exits non-zero, without the JSON line, when the build or the
run fails; exits 1 after the JSON line when the shapes are wrong.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def workloads():
    return load_json(HERE / "workloads.json")


def build(root=ROOT, log=sys.stderr):
    """Configures and builds the benchmark binary under root; returns it."""
    build_dir = root / ".bench_build" / "perfbench"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target",
              "privshape_perfbench", "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        remaining = max(1.0, deadline - time.monotonic())
        subprocess.run(cmd, stdout=log, stderr=log, check=True,
                       timeout=remaining)
    return build_dir / "privshape_perfbench"


def git_rev(root=ROOT):
    """The checkout's git revision, or "unknown" unless root is a work tree."""
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.splitlines()
        if rev.returncode != 0 or len(lines) != 2 or \
                pathlib.Path(lines[0]).resolve() != root.resolve():
            return "unknown"
        dirty = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "-uno"],
            capture_output=True, text=True, timeout=10)
        return lines[1] + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, params, seed, seconds, trace, trace_file=None,
               rev="unknown", overrides=None, timeout=RUN_TIMEOUT_S):
    """Runs privshape_perfbench once; returns its JSON document."""
    args = dict(params)
    args.update(overrides or {})
    cmd = [str(binary)]
    for key, value in args.items():
        cmd += ["--" + key, str(value)]
    cmd += ["--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--git-rev", rev]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 2) or not lines:
        raise RuntimeError(f"{cmd[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_metrics(doc, spec, trace):
    """Raises unless doc carries exactly the spec's metrics and units."""
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(got) & set(wanted)
                       if got[n] != wanted[n])
        raise RuntimeError(f"metric mismatch: missing {missing}, "
                           f"unexpected {extra}, wrong unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_json(ROOT / "BENCHMARK.json")
    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(table)}")
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3
    trace_file = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        doc = run_binary(binary, table[args.workload], args.seed,
                         args.seconds, args.trace, trace_file, git_rev())
        check_metrics(doc, spec, args.trace)
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 4

    for name, m in doc["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} reports attempted, {doc['runs']} runs)")
    print(f"{args.workload} shapes match core::PrivShape: {doc['correct']}")
    print(f"{args.workload} protocol runs by frequent length: "
          f"{doc['frequent_lengths']}")
    if trace_file:
        print(f"{args.workload} trace: {trace_file.relative_to(ROOT)}")
    print("stamp " + json.dumps(doc["stamp"], sort_keys=True))
    print(json.dumps({"correct": doc["correct"], "attempted": attempted,
                      "failed": failed, "metrics": doc["metrics"]}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
