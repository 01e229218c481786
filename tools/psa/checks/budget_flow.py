"""Check: privacy-budget flow into mechanism constructions.

Every LDP mechanism must receive its epsilon from a traced budget
expression — a MechanismConfig field, a function parameter, a split
computed from one — never a raw numeric literal at the construction
site. Literal epsilons bypass the PrivacyAccountant entirely: the
paper's user-level guarantee is the max over populations of *charged*
budget, so an uncharged hard-coded epsilon silently voids the proof.
With multi-task fleets (per-user budget accounting across concurrent
tasks) on the roadmap, every construction site must already be on the
audited tree.

Scope: all of src/. Tests, benches and examples are free to use
literals (they *are* the budget authority for their scenario).
"""

from .. import ir

CHECK_ID = "psa-budget-flow"
DESCRIPTION = ("mechanism constructions receive epsilon from a traced "
               "budget expression, never a raw literal")

# Mechanism factory -> index of the epsilon parameter.
MECHANISMS = {
    "Grr": 1,
    "UnaryEncoding": 1,
    "ExponentialMechanism": 0,
    "PiecewiseMechanism": 0,
}
FACTORY = "Create"


def run(files, registry):
    findings = []
    for src in files:
        if src.module is None:
            continue
        findings.extend(_scan(src))
    return findings


def _scan(src):
    findings = []
    tokens = src.tokens
    n = len(tokens)
    for i in range(n - 3):
        if not (tokens[i].kind == ir.IDENT
                and tokens[i].text in MECHANISMS
                and tokens[i + 1].text == "::"
                and tokens[i + 2].text == FACTORY
                and tokens[i + 3].text == "("):
            continue
        mech = tokens[i].text
        eps_index = MECHANISMS[mech]
        args = _split_args(tokens, i + 3)
        if eps_index >= len(args):
            continue  # decl or forward use; nothing to trace
        arg = args[eps_index]
        lit = _literal_value(arg)
        if lit is not None:
            findings.append(ir.Finding(
                CHECK_ID, src.path, arg[0].line,
                f"{mech}::Create receives the raw epsilon literal "
                f"{lit} — thread it from a MechanismConfig / accountant-"
                "traced budget expression so per-user accounting can "
                "audit the split"))
    return findings


def _split_args(tokens, open_idx):
    """Top-level comma-split argument token lists of the call."""
    depth = 0
    args = [[]]
    k = open_idx
    while k < len(tokens):
        t = tokens[k].text
        if t in "([{":
            depth += 1
            if depth == 1:
                k += 1
                continue
        elif t in ")]}":
            depth -= 1
            if depth == 0:
                break
        if depth >= 1:
            if t == "," and depth == 1:
                args.append([])
            else:
                args[-1].append(tokens[k])
        k += 1
    if args == [[]]:
        return []
    return args


def _literal_value(arg_tokens):
    """The literal text if the argument is a bare numeric, else None.

    Unary sign and redundant parentheses/casts around a literal still
    count as a literal: `(0.5)`, `-1.0`, `double{2}` are all untraced.
    """
    toks = [t for t in arg_tokens
            if t.text not in ("(", ")", "{", "}", "+", "-")
            and not (t.kind == ir.IDENT and t.text in (
                "double", "float", "static_cast"))
            and t.text not in ("<", ">")]
    if len(toks) == 1 and toks[0].kind == ir.NUMBER:
        sign = "-" if any(t.text == "-" for t in arg_tokens) else ""
        return sign + toks[0].text
    return None
