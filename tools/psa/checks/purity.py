"""Check: telemetry/layering purity.

Two ownership contracts from the telemetry PR (documented in
docs/ARCHITECTURE.md and docs/OBSERVABILITY.md), made machine-checked:

  * Relaxed atomics live in src/telemetry only. The telemetry layer's
    record-path cost contract is "one relaxed fetch_add"; everywhere
    else, an explicit std::memory_order_relaxed is either a data-race
    patch hiding a missing lock or an unannounced perf contract —
    both need a justified suppression, not a silent pass.

  * src/common stays telemetry-free. common is the bottom of the DAG
    and has no bridge into telemetry, so any telemetry include or
    telemetry:: reference in common is an inversion the layering lint's
    include-edge view can only partially see.
"""

from .. import ir

CHECK_ID = "psa-purity"
DESCRIPTION = ("relaxed atomics stay inside src/telemetry and "
               "src/common stays telemetry-free")

ATOMIC_HOME = "telemetry"
TELEMETRY_FREE = "common"


def run(files, registry):
    findings = []
    for src in files:
        module = src.module
        if module is None:
            continue
        if module != ATOMIC_HOME:
            for tok in src.tokens:
                if tok.kind == ir.IDENT and \
                        tok.text == "memory_order_relaxed":
                    findings.append(ir.Finding(
                        CHECK_ID, src.path, tok.line,
                        "std::memory_order_relaxed outside src/telemetry "
                        "— document the ownership contract via a "
                        "justified suppression or use the default "
                        "ordering"))
        if module == TELEMETRY_FREE:
            for line, inc in src.includes:
                if inc.startswith("telemetry/"):
                    findings.append(ir.Finding(
                        CHECK_ID, src.path, line,
                        f'src/common must stay telemetry-free — remove '
                        f'#include "{inc}" (common is the bottom of the '
                        "module DAG)"))
            for i, tok in enumerate(src.tokens):
                if (tok.kind == ir.IDENT and tok.text == "telemetry"
                        and i + 1 < len(src.tokens)
                        and src.tokens[i + 1].text == "::"):
                    findings.append(ir.Finding(
                        CHECK_ID, src.path, tok.line,
                        "src/common references telemetry:: — common is "
                        "the bottom of the module DAG"))
    return findings
