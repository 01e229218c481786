#!/usr/bin/env python3
"""A/B of the benchmark between this checkout and another git revision.

    python3 perfbench/ab.py --rev HEAD~1 [--workloads trace-cluster]
        [--pairs 10] [--seconds 15] [--seed 1] [--keep-worktree]

Checks REV out into a local git worktree under .bench_ab/ (no network),
overlays this checkout's perfbench/ and BENCHMARK.json on it so that both
sides run identical benchmark code, and builds both. Then, per workload,
runs --pairs pairs on seeds seed, seed+1, ..., alternating which side runs
first. For every end-to-end metric it prints each side's median and
quartiles, how many pairs this checkout won, and a verdict:

  gain        wins >= 9/10 of the pairs and the medians differ by more
              than the base's own quartile spread;
  regression  the median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the base's spread exceeds the bound (and not every run of
              this checkout beats every run of the base);
  no change   otherwise.

The runs, medians and verdicts are also written to
.bench_out/ab-<rev>.json. The worktree is removed at the end unless
--keep-worktree is given.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys

import run as bench


def git(*args):
    return subprocess.run(["git", "-C", str(bench.ROOT), *args], check=True,
                           capture_output=True, text=True).stdout.strip()


def checkout(rev):
    """Returns the worktree holding `rev` with this checkout's benchmark."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = bench.ROOT / ".bench_ab" / sha[:12]
    if not tree.exists():
        git("worktree", "add", "--detach", str(tree), sha)
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(bench.HERE, tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(bench.ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return sha, tree


def verdict(metric, base, head):
    better = (lambda a, b: a > b) if metric["better"] == "higher" else (
        lambda a, b: a < b)
    wins = sum(better(h, b) for b, h in zip(base, head))
    q1, med_b, q3 = statistics.quantiles(base, n=4)
    med_h = statistics.median(head)
    spread = q3 - q1
    if wins >= 0.9 * len(base) and abs(med_h - med_b) > spread and better(
            med_h, med_b):
        call = "gain"
    elif better(med_b, med_h) and abs(med_h - med_b) > metric["bound"] * med_b:
        call = "regression"
    elif spread > metric["bound"] * med_b and not all(
            better(h, b) for h in head for b in base):
        call = "unresolved"
    else:
        call = "no change"
    return {"base_median": med_b, "base_q1": q1, "base_q3": q3,
            "head_median": med_h,
            "head_q1": statistics.quantiles(head, n=4)[0],
            "head_q3": statistics.quantiles(head, n=4)[2],
            "wins": wins, "pairs": len(base), "verdict": call}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--keep-worktree", action="store_true")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = bench.load_json(bench.ROOT / "BENCHMARK.json")
    seconds = args.seconds or spec["run_seconds"]
    table = bench.workloads()
    names = args.workloads.split(",") if args.workloads else list(table)
    sha, tree = checkout(args.rev)
    try:
        sides = {"base": (bench.build(tree), sha),
                 "head": (bench.build(), bench.git_rev())}
        runs = {}
        for name in names:
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    binary, rev = sides[side]
                    doc = bench.run_binary(binary, table[name],
                                           args.seed + i, seconds, 0, rev=rev)
                    if not doc["correct"] or doc["failed"]:
                        raise RuntimeError(f"{side} {name} seed "
                                           f"{args.seed + i}: wrong shapes "
                                           "or failed reports")
                    runs.setdefault(name, {}).setdefault(side, []).append(
                        doc["metrics"])
    finally:
        if not args.keep_worktree:
            git("worktree", "remove", "--force", str(tree))

    report = {"base": sha, "head": sides["head"][1], "pairs": args.pairs,
              "seconds": seconds, "runs": runs, "verdicts": {}}
    print(f"A/B base {sha[:12]} vs head {report['head'][:12]}, "
          f"{args.pairs} pairs x {seconds}s")
    for name in names:
        for metric in spec["end_to_end"]:
            base = [m[metric["name"]]["value"] for m in runs[name]["base"]]
            head = [m[metric["name"]]["value"] for m in runs[name]["head"]]
            v = verdict(metric, base, head)
            report["verdicts"].setdefault(name, {})[metric["name"]] = v
            print(f"{name:18s} {metric['name']:18s} "
                  f"base {v['base_median']:.5g} [{v['base_q1']:.5g}, "
                  f"{v['base_q3']:.5g}]  head {v['head_median']:.5g} "
                  f"[{v['head_q1']:.5g}, {v['head_q3']:.5g}] {metric['unit']}"
                  f"  wins {v['wins']}/{v['pairs']}  {v['verdict']}")
    out = bench.ROOT / ".bench_out" / f"ab-{sha[:12]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"written {out.relative_to(bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
