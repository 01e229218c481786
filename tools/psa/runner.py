"""Analyzer driver: tokenizer -> annotation registry -> checks -> report."""

import os

from . import __version__
from . import annotations
from . import checks
from . import engine
from . import sarif
from . import suppressions

DEFAULT_SUPPRESSIONS = os.path.join("tools", "psa", "suppressions.txt")


def analyze_tree(root, suppression_path=None, require_used=True,
                 log=print):
    """Runs every check over the tree at `root`.

    Returns (exit_code, active, suppressed) where exit_code follows the
    uniform tooling convention: 0 clean, 1 findings, 2 internal error.
    """
    files = []
    try:
        rel_paths = engine.discover_files(root)
    except OSError as e:
        log(f"psa: cannot walk {root}: {e}")
        return 2, [], []
    if not rel_paths:
        log(f"psa: no sources under {os.path.join(root, 'src')}")
        return 2, [], []
    for rel in rel_paths:
        try:
            files.append(engine.parse(root, rel))
        except OSError as e:
            log(f"psa: unreadable {rel}: {e}")
            return 2, [], []

    registry = annotations.Registry()
    for src in files:
        annotations.collect(src, registry)

    findings = []
    for check in checks.ALL_CHECKS:
        findings.extend(check.run(files, registry))

    # Suppressions.
    if suppression_path is None:
        suppression_path = os.path.join(root, DEFAULT_SUPPRESSIONS)
    if os.path.isfile(suppression_path):
        with open(suppression_path, encoding="utf-8") as f:
            text = f.read()
        rel_supp = os.path.relpath(suppression_path, root).replace(
            os.sep, "/")
        supp = suppressions.parse(rel_supp, text, set(checks.check_ids()))
    else:
        supp = suppressions.SuppressionFile(path="<none>")
    active, suppressed, problems = suppressions.apply(
        findings, supp, require_used=require_used)
    active.extend(problems)
    active.sort(key=lambda f: (f.path, f.line, f.check))
    return (1 if active else 0), active, suppressed


def report(active, suppressed, files_analyzed, log=print):
    for f in active:
        log(f.render())
    if suppressed:
        log(f"psa: {len(suppressed)} finding(s) suppressed "
            "(tools/psa/suppressions.txt):")
        for f in suppressed:
            log(f"  [suppressed by {f.suppressed_by}] {f.render()}")
    if active:
        log(f"psa: {len(active)} violation(s) over {files_analyzed} "
            "file(s)")
    else:
        log(f"psa: OK — {files_analyzed} file(s), "
            f"{len(checks.ALL_CHECKS)} checks, "
            f"{len(suppressed)} justified suppression(s)")


def write_sarif(path, active, suppressed):
    sarif.write(path, active + suppressed, checks.ALL_CHECKS, __version__)
