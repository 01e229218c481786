#!/usr/bin/env python3
"""Unified static-analysis entry point.

Runs both analysis layers over the repository with one exit-code
contract:

  * layering lint (tools/lint_layering.py): the module dependency DAG
    over #include edges, cross-checked against CMake link edges;
  * PrivShape Analyzer (tools/psa/): the semantic contracts — RNG
    consumption order, report-path determinism, privacy-budget flow,
    and telemetry/layering purity.

Usage:
  tools/analyze.py                       # lint src/
  tools/analyze.py --self-test           # both layers' self-tests
  tools/analyze.py --sarif out.sarif     # also write SARIF 2.1.0

Exit codes (uniform across layers): 0 clean, 1 findings, 2 internal
error. Findings are suppressible only via tools/psa/suppressions.txt,
which requires a written justification per entry.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint_layering  # noqa: E402
from psa import runner, selftest  # noqa: E402
from psa import engine as psa_engine  # noqa: E402


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run both layers' self-tests instead of linting the tree")
    parser.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="write findings (incl. suppressed) as SARIF 2.1.0")
    args = parser.parse_args()

    if args.self_test:
        layering = lint_layering.self_test()
        psa = selftest.run_selftest(args.root)
        return max(layering, psa)

    layering = lint_layering.run_lint(args.root)
    code, active, suppressed = runner.analyze_tree(args.root)
    files = len(psa_engine.discover_files(args.root))
    runner.report(active, suppressed, files)
    if args.sarif:
        runner.write_sarif(args.sarif, active, suppressed)
        print(f"psa: SARIF written to {args.sarif}")
    return max(layering, code)


if __name__ == "__main__":
    sys.exit(main())
