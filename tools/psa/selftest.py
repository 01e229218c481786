"""Analyzer self-test: every check proven to fire AND to stay quiet.

Each check family has a fixture mini-tree under tools/psa/fixtures/:
a `bad/` tree where every rule is violated once (the check must produce
exactly the expected findings) and a `good/` twin exercising the same
shapes legally (the whole analyzer must stay silent). On top of the
fixtures, unit assertions cover the tokenizer, suppression parsing and
SARIF emission — the places where a silent regression would blind every
check at once.
"""

import json
import os
import tempfile

from . import annotations
from . import ir
from . import runner
from . import sarif
from . import suppressions
from . import tokenizer
from .checks import ALL_CHECKS, check_ids

FIXTURES = os.path.join("tools", "psa", "fixtures")


class Failure(AssertionError):
    pass


def _check(cond, message):
    if not cond:
        raise Failure(message)


def _quiet(_msg):
    pass


def _analyze_fixture(root, tree):
    path = os.path.join(root, FIXTURES, tree)
    _check(os.path.isdir(path), f"fixture tree missing: {path}")
    code, active, suppressed = runner.analyze_tree(path, log=_quiet)
    _check(code != 2, f"{tree}: analyzer internal error")
    return code, active, suppressed


def _expect_tree(root, tree, expected):
    """expected: list of (check_id, path_suffix, message_substring)."""
    code, active, _ = _analyze_fixture(root, tree)
    rendered = "\n".join("  " + f.render() for f in active) or "  (none)"
    _check(len(active) == len(expected),
           f"{tree}: expected {len(expected)} finding(s), got "
           f"{len(active)}:\n{rendered}")
    _check(code == (1 if expected else 0),
           f"{tree}: exit code {code} with {len(active)} finding(s)")
    for check_id, suffix, substring in expected:
        hits = [f for f in active
                if f.check == check_id and f.path.endswith(suffix)
                and substring in f.message]
        _check(hits, f"{tree}: no {check_id} finding at *{suffix} "
                     f"containing '{substring}':\n{rendered}")


# --- fixture trees --------------------------------------------------------


def test_rng_order_fires(root):
    _expect_tree(root, os.path.join("rng_order", "bad"), [
        ("psa-rng-order", "bad_mech.cc", "raw std randomness"),
        ("psa-rng-order", "bad_mech.cc", "direct engine() access"),
        ("psa-rng-order", "bad_mech.cc", "raw Rng draw Uniform()"),
        ("psa-rng-order", "bad_mech.cc", "call graph consumes 3 word(s)"),
        ("psa-rng-order", "bad_mech.cc", "inside a branch/loop"),
        ("psa-rng-order", "bad_mech.cc", "outside any PS_REPORT_PATH"),
        ("psa-rng-order", "bad_decl.h", "disagrees between declaration"),
        ("psa-rng-order", "bad_decl.h", "without including"),
    ])


def test_rng_order_quiet(root):
    _expect_tree(root, os.path.join("rng_order", "good"), [])


def test_determinism_fires(root):
    _expect_tree(root, os.path.join("determinism", "bad"), [
        ("psa-determinism", "bad_det.cc", "wall-clock read 'steady_clock'"),
        ("psa-determinism", "bad_det.cc", "process-global randomness"),
        ("psa-determinism", "bad_det.cc", "'unordered_map'"),
        ("psa-determinism", "bad_det.cc", "float/text round-trip 'stod'"),
        ("psa-determinism", "bad_det.cc", "local 'mt19937_64' engine"),
        ("psa-determinism", "bad_coll.cc", "wall-clock read 'system_clock'"),
    ])


def test_determinism_quiet(root):
    _expect_tree(root, os.path.join("determinism", "good"), [])


def test_budget_flow_fires(root):
    _expect_tree(root, os.path.join("budget_flow", "bad"), [
        ("psa-budget-flow", "bad_budget.cc", "literal 1.0"),
        ("psa-budget-flow", "bad_budget.cc", "literal 0.5"),
        ("psa-budget-flow", "bad_budget.cc", "literal 2.0"),
    ])


def test_budget_flow_quiet(root):
    _expect_tree(root, os.path.join("budget_flow", "good"), [])


def test_purity_fires(root):
    _expect_tree(root, os.path.join("purity", "bad"), [
        ("psa-purity", "bad_atomic.cc", "memory_order_relaxed outside"),
        ("psa-purity", "bad_telemetry.cc", "remove #include"),
        ("psa-purity", "bad_telemetry.cc", "references telemetry::"),
    ])


def test_purity_quiet(root):
    _expect_tree(root, os.path.join("purity", "good"), [])


# --- tokenizer ------------------------------------------------------------


def test_tokenizer_comments_and_strings(root):
    src = tokenizer.tokenize(
        '// steady_clock in a comment\n'
        'int a = 1; /* rand() in\n a block comment */\n'
        'const char* s = "std::rand() inside a string";\n'
        "char c = 'x';\n", "src/core/t.cc")
    idents = [t.text for t in src.tokens if t.kind == ir.IDENT]
    _check("steady_clock" not in idents, "comment text leaked as tokens")
    _check("rand" not in idents, "comment/string text leaked as tokens")
    strings = [t for t in src.tokens if t.kind == ir.STRING]
    _check(len(strings) == 1, f"expected 1 string token, got {strings}")
    _check(strings[0].line == 4, f"string line {strings[0].line} != 4")
    chars = [t for t in src.tokens if t.kind == ir.CHAR]
    _check(len(chars) == 1, "char literal not tokenized")


def test_tokenizer_raw_strings(root):
    src = tokenizer.tokenize(
        'auto r = R"fmt(rand() %f "quote")fmt";\nint after = 2;\n',
        "src/core/t.cc")
    idents = [t.text for t in src.tokens if t.kind == ir.IDENT]
    _check("rand" not in idents, "raw string content leaked")
    _check("after" in idents, "tokens after raw string lost")
    after = next(t for t in src.tokens if t.text == "after")
    _check(after.line == 2, f"line tracking broke after raw string "
                            f"({after.line} != 2)")


def test_tokenizer_preprocessor(root):
    src = tokenizer.tokenize(
        '#include "ldp/grr.h"\n'
        '#include <unordered_map>\n'
        '#define HELPER(x) \\\n'
        '  std::rand(x)\n'
        'int live = 1;\n', "src/core/t.cc")
    idents = [t.text for t in src.tokens if t.kind == ir.IDENT]
    _check("unordered_map" not in idents, "system include leaked tokens")
    _check("rand" not in idents, "macro continuation line leaked tokens")
    _check("live" in idents, "code after directives lost")
    _check(src.includes == [(1, "ldp/grr.h")],
           f"include capture wrong: {src.includes}")
    live = next(t for t in src.tokens if t.text == "live")
    _check(live.line == 5, f"line tracking broke across directives "
                           f"({live.line} != 5)")


# --- suppressions ---------------------------------------------------------


def test_suppression_parse_problems(root):
    known = set(check_ids())
    text = "\n".join([
        "# comment, ignored",
        "",
        "psa-purity src/common/shutdown.cc",  # no justification
        "psa-purity too many words here -- a justification long enough",
        "psa-nonexistent src/a.cc -- a justification long enough here",
        "psa-purity src/a.cc:xy -- a justification long enough here",
        "psa-purity src/a.cc -- too thin",
    ])
    supp = suppressions.parse("tools/psa/suppressions.txt", text, known)
    _check(not supp.entries, f"malformed entries accepted: {supp.entries}")
    msgs = [p.message for p in supp.problems]
    _check(len(msgs) == 5, f"expected 5 parse problems, got {msgs}")
    for needle in ("no ' -- justification'", "malformed suppression head",
                   "unknown check id", "is not a number",
                   "justification too thin"):
        _check(any(needle in m for m in msgs),
               f"missing parse problem '{needle}' in {msgs}")


def test_suppression_apply(root):
    known = set(check_ids())
    text = ("psa-purity src/x/*.cc:7 -- relaxed counter is the module's "
            "documented contract\n"
            "psa-determinism src/never/*.cc -- matches nothing so it "
            "must be reported stale\n")
    supp = suppressions.parse("tools/psa/suppressions.txt", text, known)
    _check(len(supp.entries) == 2, f"parse rejected entries: "
                                   f"{[p.message for p in supp.problems]}")
    hit = ir.Finding("psa-purity", "src/x/a.cc", 7, "m")
    wrong_line = ir.Finding("psa-purity", "src/x/a.cc", 9, "m")
    active, suppressed, problems = suppressions.apply(
        [hit, wrong_line], supp, require_used=True)
    _check(suppressed == [hit], "line-pinned suppression did not match")
    _check(hit.suppressed_by.endswith(":1"), "suppressed_by not recorded")
    _check(active == [wrong_line] or wrong_line in active,
           "non-matching finding was suppressed")
    _check(any("stale suppression" in p.message for p in problems),
           "unused entry not reported stale")
    # Partial-tree runs must not report staleness.
    _, _, lenient = suppressions.apply([hit], supp, require_used=False)
    _check(not lenient, "require_used=False still reported staleness")


def test_suppression_end_to_end(root):
    tree = os.path.join(root, FIXTURES, "purity", "bad")
    with tempfile.NamedTemporaryFile(
            "w", suffix=".txt", delete=False) as f:
        f.write("psa-purity */bad_atomic.cc -- fixture: proving the "
                "suppression path end to end\n")
        supp_path = f.name
    try:
        code, active, suppressed = runner.analyze_tree(
            tree, suppression_path=supp_path, log=_quiet)
    finally:
        os.unlink(supp_path)
    _check(len(suppressed) == 1, f"expected 1 suppressed finding, got "
                                 f"{[f.render() for f in suppressed]}")
    _check(len(active) == 2 and code == 1,
           "suppression swallowed unrelated findings")


# --- SARIF ----------------------------------------------------------------


def test_sarif_smoke(root):
    plain = ir.Finding("psa-determinism", "src/core/a.cc", 12, "msg")
    shushed = ir.Finding("psa-purity", "src/common/b.h", 3, "msg2",
                         suppressed_by="tools/psa/suppressions.txt:4")
    log = sarif.to_sarif([plain, shushed], ALL_CHECKS, "1.0.0")
    log = json.loads(json.dumps(log))  # must be JSON-serializable
    _check(log["version"] == "2.1.0", "SARIF version missing")
    _check("sarif-schema-2.1.0" in log["$schema"], "SARIF $schema missing")
    run = log["runs"][0]
    _check(run["tool"]["driver"]["name"] == "privshape-analyzer",
           "driver name missing")
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    _check(set(check_ids()) | {"psa-suppressions"} <= rule_ids,
           f"rules incomplete: {rule_ids}")
    results = run["results"]
    _check(len(results) == 2, "result count wrong")
    _check(results[0]["ruleId"] == "psa-determinism" and
           results[0]["level"] == "error", "result head wrong")
    loc = results[0]["locations"][0]["physicalLocation"]
    _check(loc["artifactLocation"]["uri"] == "src/core/a.cc" and
           loc["region"]["startLine"] == 12, "result location wrong")
    _check("suppressions" not in results[0], "active result marked "
                                             "suppressed")
    _check(results[1]["suppressions"][0]["kind"] == "external",
           "suppressed result lacks suppression record")


def test_receiver_aliases(root):
    # The repo's naming conventions the resolver leans on; if these
    # drift, ambiguous PerturbValue calls stop resolving.
    _check(annotations.RECEIVER_ALIASES.get("grr") == "Grr" and
           annotations.RECEIVER_ALIASES.get("oue") == "UnaryEncoding" and
           annotations.RECEIVER_ALIASES.get("em") == "ExponentialMechanism",
           f"receiver aliases drifted: {annotations.RECEIVER_ALIASES}")


TESTS = [
    test_rng_order_fires,
    test_rng_order_quiet,
    test_determinism_fires,
    test_determinism_quiet,
    test_budget_flow_fires,
    test_budget_flow_quiet,
    test_purity_fires,
    test_purity_quiet,
    test_tokenizer_comments_and_strings,
    test_tokenizer_raw_strings,
    test_tokenizer_preprocessor,
    test_suppression_parse_problems,
    test_suppression_apply,
    test_suppression_end_to_end,
    test_sarif_smoke,
    test_receiver_aliases,
]


def run_selftest(root, log=print):
    """Runs every self-test; returns 0 on success, 1 on failure."""
    failures = 0
    for test in TESTS:
        name = test.__name__
        try:
            test(root)
        except Failure as e:
            failures += 1
            log(f"psa-selftest: FAIL {name}: {e}")
        except Exception as e:  # noqa: broad on purpose — report, not crash
            failures += 1
            log(f"psa-selftest: ERROR {name}: {type(e).__name__}: {e}")
        else:
            log(f"psa-selftest: ok {name}")
    if failures:
        log(f"psa-selftest: {failures}/{len(TESTS)} test(s) failed")
        return 1
    log(f"psa-selftest: all {len(TESTS)} tests passed")
    return 0
