"""Annotation registry: PS_RNG_WORDS / PS_RNG_CANONICAL / PS_REPORT_PATH.

Scans the token IR for marker macros (src/common/analysis_annotations.h)
and attaches each to the function declaration or definition that follows
it, tracking enclosing class bodies so in-class declarations get
qualified names (``Grr::PerturbValue``). Definitions additionally carry
their body token range, which is what the rng-order check walks.

The registry also provides the shared *consumption-site* scanner: given
a function body, it reports every place raw engine words are (or may
be) consumed — FillU64 calls, Rng convenience draws, std distribution
objects, direct engine access, and calls into other annotated
functions — with enough structure for the word-count cross-check.
"""

import re

from dataclasses import dataclass, field

from . import ir

MARKERS = ("PS_RNG_WORDS", "PS_RNG_CANONICAL", "PS_REPORT_PATH")

# Rng convenience methods: each consumes a stdlib-dependent, variable
# number of engine words, which is exactly what the canonical order
# forbids outside PS_RNG_CANONICAL definitions.
RAW_DRAW_METHODS = {
    "Uniform", "UniformInt", "Index", "Bernoulli", "Gaussian", "Laplace",
    "Discrete", "Shuffle", "Fork",
}

# Blessed batched primitives: fixed words by construction (the count is
# the second argument), allowed everywhere.
BLESSED_PRIMITIVES = {"FillU64"}

# std:: randomness constructs that must never appear in annotated code.
STD_RANDOM = {
    "uniform_int_distribution", "uniform_real_distribution",
    "bernoulli_distribution", "normal_distribution",
    "discrete_distribution", "poisson_distribution",
    "exponential_distribution", "mt19937", "mt19937_64", "minstd_rand",
    "random_device", "default_random_engine", "rand", "srand",
}

# Receiver-spelling fallback for resolving ambiguous annotated method
# names (e.g. PerturbValue exists on Grr and UnaryEncoding) when
# neither parameter types nor Create-locals identify the class. These
# are the repo's pervasive naming conventions; the self-test pins them.
RECEIVER_ALIASES = {
    "grr": "Grr",
    "oue": "UnaryEncoding",
    "ue": "UnaryEncoding",
    "em": "ExponentialMechanism",
}


@dataclass
class Annotation:
    kind: str  # one of MARKERS
    words: str = ""  # raw expression text for PS_RNG_WORDS


@dataclass
class Function:
    name: str  # unqualified, e.g. "PerturbValue"
    qualified: str  # e.g. "Grr::PerturbValue" (== name if free)
    cls: str  # enclosing/explicit class, "" if free function
    path: str
    line: int
    annotations: list  # list[Annotation]
    params: str = ""  # raw parameter-list text
    body: tuple = None  # (start, end) token indices into the file, or None
    src: ir.SourceFile = None

    @property
    def declared_words(self):
        for a in self.annotations:
            if a.kind == "PS_RNG_WORDS":
                return a.words
        return None

    @property
    def numeric_words(self):
        w = self.declared_words
        if w is not None and re.fullmatch(r"\d+", w.strip()):
            return int(w.strip())
        return None

    def is_canonical(self):
        return any(a.kind in ("PS_RNG_CANONICAL", "PS_RNG_WORDS")
                   for a in self.annotations)

    def is_report_path(self):
        return any(a.kind == "PS_REPORT_PATH" for a in self.annotations)


@dataclass
class Registry:
    functions: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # list[ir.Finding]

    def by_name(self, name):
        return [f for f in self.functions if f.name == name]

    def lookup(self, cls, name):
        for f in self.functions:
            if f.name == name and f.cls == cls:
                return f
        return None


def _match_close(tokens, i, open_t, close_t):
    """Index just past the token closing the bracket opened at i."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _class_context(tokens):
    """For each token index, the innermost class/struct name (or "")."""
    ctx = [""] * len(tokens)
    stack = []  # (depth_when_entered, name)
    depth = 0
    i = 0
    pending = None  # class name awaiting its '{'
    while i < len(tokens):
        t = tokens[i]
        if t.kind == ir.IDENT and t.text in ("class", "struct"):
            # `class NAME [final] [: bases] {` — skip forward declarations
            # (terminated by ';' before any '{').
            j = i + 1
            name = None
            while j < len(tokens) and tokens[j].kind == ir.IDENT:
                if tokens[j].text not in ("final", "alignas"):
                    name = tokens[j].text
                j += 1
            k = j
            while k < len(tokens) and tokens[k].text not in ("{", ";"):
                k += 1
            if name and k < len(tokens) and tokens[k].text == "{":
                pending = (name, k)
        if t.text == "{":
            if pending and pending[1] == i:
                stack.append((depth, pending[0]))
                pending = None
            depth += 1
        elif t.text == "}":
            depth -= 1
            if stack and stack[-1][0] == depth:
                stack.pop()
        ctx[i] = stack[-1][1] if stack else ""
        i += 1
    return ctx


def collect(src, registry):
    """Harvests annotated functions from one SourceFile into registry."""
    tokens = src.tokens
    ctx = _class_context(tokens)
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind != ir.IDENT or t.text not in MARKERS:
            i += 1
            continue
        anns = []
        start_line = t.line
        # Consume a run of consecutive markers.
        while i < n and tokens[i].kind == ir.IDENT and \
                tokens[i].text in MARKERS:
            kind = tokens[i].text
            words = ""
            i += 1
            if kind == "PS_RNG_WORDS":
                if i < n and tokens[i].text == "(":
                    close = _match_close(tokens, i, "(", ")")
                    words = " ".join(tok.text for tok in
                                     tokens[i + 1:close - 1])
                    i = close
                else:
                    registry.problems.append(ir.Finding(
                        "psa-rng-order", src.path, start_line,
                        "PS_RNG_WORDS marker without a (count) argument"))
            anns.append(Annotation(kind, words))
        fn = _parse_function_after(src, tokens, i, ctx, anns)
        if fn is None:
            registry.problems.append(ir.Finding(
                "psa-rng-order", src.path, start_line,
                "annotation marker is not followed by a function "
                "declaration or definition"))
        else:
            registry.functions.append(fn)
        i += 1


def _parse_function_after(src, tokens, i, ctx, anns):
    """Parses the function decl/def starting at token i, or None."""
    n = len(tokens)
    # Find the parameter-list '(' : the first '(' at angle depth 0 that
    # is preceded by an identifier (the function name). Stop early on
    # tokens that cannot belong to a declarator.
    j = i
    angle = 0
    name_idx = None
    while j < n:
        t = tokens[j].text
        if t == "<":
            angle += 1
        elif t == ">":
            angle = max(0, angle - 1)
        elif t == ">>":  # closes two template levels (vector<vector<T>>)
            angle = max(0, angle - 2)
        elif t == "(" and angle == 0:
            if j > i and tokens[j - 1].kind == ir.IDENT:
                name_idx = j - 1
                break
            return None
        elif t in ("{", "}", ";"):
            return None
        j += 1
    if name_idx is None:
        return None
    name = tokens[name_idx].text
    cls = ctx[name_idx]
    # Explicit qualification `Class :: Name (` wins over class context.
    if name_idx >= 2 and tokens[name_idx - 1].text == "::" and \
            tokens[name_idx - 2].kind == ir.IDENT:
        cls = tokens[name_idx - 2].text
    close = _match_close(tokens, j, "(", ")")
    params = " ".join(tok.text for tok in tokens[j + 1:close - 1])
    # Walk past cv/ref/noexcept/override/trailing-return to ';' or '{'.
    k = close
    body = None
    while k < n:
        t = tokens[k].text
        if t == ";":
            break
        if t == "{":
            body = (k, _match_close(tokens, k, "{", "}"))
            break
        if t == "(":  # noexcept(...) etc.
            k = _match_close(tokens, k, "(", ")")
            continue
        k += 1
    qualified = f"{cls}::{name}" if cls else name
    return Function(name=name, qualified=qualified, cls=cls, path=src.path,
                    line=tokens[name_idx].line, annotations=anns,
                    params=params, body=body, src=src)


# --- Consumption-site scanning -------------------------------------------


@dataclass
class Site:
    """One randomness-consumption site inside a function body."""

    line: int
    kind: str  # "fill", "raw", "std-random", "engine", "call"
    detail: str
    words: object = None  # int when statically known, else None
    callee: object = None  # Function for resolved "call" sites
    in_branch: bool = False  # inside if/for/while/switch/ternary
    idx: int = -1  # token index of the site (for span containment)


def _param_types(params_text):
    """{param_name: ClassName} for class-typed params, best effort."""
    out = {}
    for piece in params_text.split(","):
        toks = piece.replace("&", " ").replace("*", " ").split()
        toks = [t for t in toks if t not in ("const", "::")]
        if len(toks) >= 2:
            # Last token is the name; the type's last identifier is the
            # class (e.g. ["ldp", "Grr", "grr"] -> Grr grr).
            name = toks[-1]
            cls = toks[-2]
            if re.fullmatch(r"[A-Za-z_]\w*", name) and \
                    re.fullmatch(r"[A-Z]\w*", cls):
                out[name] = cls
    return out


def _local_create_types(tokens, body):
    """{local_name: ClassName} from `auto x = [ns ::] X::Create(...)`."""
    out = {}
    start, end = body
    for i in range(start, end - 4):
        if (tokens[i].kind == ir.IDENT and tokens[i + 1].text == "="
                and i >= 1):
            name = tokens[i].text
            j = i + 2
            # Skip leading namespace qualifiers: ldp :: Grr :: Create
            chain = []
            while j < end and tokens[j].kind == ir.IDENT:
                chain.append(tokens[j].text)
                if j + 1 < end and tokens[j + 1].text == "::":
                    j += 2
                else:
                    break
            if len(chain) >= 2 and chain[-1] == "Create":
                out[name] = chain[-2]
    return out


def _receiver_class(tokens, idx, param_types, local_types, own_class):
    """Class of the receiver for the method call at token idx (name)."""
    i = idx - 1
    if i < 0 or tokens[i].text not in (".", "->"):
        # Unqualified call: resolve against the enclosing class first.
        if idx >= 2 and tokens[idx - 1].text == "::" and \
                tokens[idx - 2].kind == ir.IDENT:
            return tokens[idx - 2].text
        return own_class or None
    j = i - 1
    # Strip one call suffix: `ctx . grr ( ) -> Method` -> receiver `grr`.
    if j >= 0 and tokens[j].text == ")":
        depth = 0
        while j >= 0:
            if tokens[j].text == ")":
                depth += 1
            elif tokens[j].text == "(":
                depth -= 1
                if depth == 0:
                    j -= 1
                    break
            j -= 1
    if j < 0 or tokens[j].kind != ir.IDENT:
        return None
    recv = tokens[j].text
    if recv in param_types:
        return param_types[recv]
    if recv in local_types:
        return local_types[recv]
    base = recv.rstrip("_")
    if base in RECEIVER_ALIASES:
        return RECEIVER_ALIASES[base]
    return None


def scan_sites(fn, registry):
    """All randomness-consumption sites in fn's body (definition only)."""
    if fn.body is None:
        return []
    tokens = fn.src.tokens
    start, end = fn.body
    param_types = _param_types(fn.params)
    local_types = _local_create_types(tokens, fn.body)
    annotated_names = {f.name for f in registry.functions}
    sites = []

    # Branch tracking: token ranges covered by if/for/while/switch
    # bodies or conditions, so the fixed-word check can reject
    # conditional consumption.
    branch = [False] * (end - start)
    i = start
    while i < end:
        t = tokens[i]
        if t.kind == ir.IDENT and t.text in ("if", "for", "while",
                                             "switch", "do"):
            j = i + 1
            if j < end and tokens[j].text == "(":
                j = _match_close(tokens, j, "(", ")")
            stmt_end = j
            if j < end and tokens[j].text == "{":
                stmt_end = _match_close(tokens, j, "{", "}")
            else:  # single statement
                while stmt_end < end and tokens[stmt_end].text != ";":
                    stmt_end += 1
            for k in range(i, min(stmt_end, end)):
                branch[k - start] = True
        elif t.text == "?":
            branch[i - start] = True
        i += 1

    i = start
    while i < end:
        t = tokens[i]
        if t.kind != ir.IDENT:
            i += 1
            continue
        in_branch = branch[i - start]
        nxt = tokens[i + 1].text if i + 1 < end else ""
        if t.text in STD_RANDOM:
            sites.append(Site(t.line, "std-random", t.text,
                              in_branch=in_branch, idx=i))
        elif t.text in BLESSED_PRIMITIVES and nxt == "(":
            count = _second_arg_literal(tokens, i + 1, end)
            sites.append(Site(t.line, "fill", f"{t.text}(...)",
                              words=count, in_branch=in_branch, idx=i))
        elif t.text in RAW_DRAW_METHODS and nxt == "(" and i > start and \
                tokens[i - 1].text in (".", "->"):
            sites.append(Site(t.line, "raw", f"{t.text}()",
                              in_branch=in_branch, idx=i))
        elif t.text == "engine" and nxt == "(" and i > start and \
                tokens[i - 1].text in (".", "->"):
            sites.append(Site(t.line, "engine", "direct engine() access",
                              in_branch=in_branch, idx=i))
        elif t.text in annotated_names and nxt == "(":
            cls = _receiver_class(tokens, i, param_types, local_types,
                                  fn.cls)
            callee = registry.lookup(cls, t.text) if cls else None
            if callee is None:
                cands = registry.by_name(t.text)
                # Unambiguous by name alone (treat decl+def of the same
                # qualified function as one candidate).
                quals = {c.qualified for c in cands}
                if len(quals) == 1:
                    callee = cands[0]
            if callee is not None and callee.qualified == fn.qualified:
                pass  # self-recursion: not a consumption edge
            else:
                words = callee.numeric_words if callee else None
                sites.append(Site(t.line, "call", t.text, words=words,
                                  callee=callee, in_branch=in_branch,
                                  idx=i))
        i += 1
    return sites


def _second_arg_literal(tokens, open_idx, end):
    """Integer literal second argument of the call at open_idx, or None."""
    close = _match_close(tokens, open_idx, "(", ")")
    depth = 0
    args = [[]]
    for k in range(open_idx + 1, min(close - 1, end)):
        t = tokens[k].text
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
        if t == "," and depth == 0:
            args.append([])
        else:
            args[-1].append(tokens[k])
    if len(args) != 2:
        return None
    arg = [t for t in args[1]]
    if len(arg) == 1 and arg[0].kind == ir.NUMBER and \
            re.fullmatch(r"\d+", arg[0].text):
        return int(arg[0].text)
    return None
