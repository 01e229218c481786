"""Pure-Python C++ tokenizer — the analyzer's frontend.

Produces the token IR (tools/psa/ir.py) with no compiler in the loop. It is not a full lexer — it does not do preprocessing — but it is
exact about the things the checks depend on:

  * comments (// and /* */) and string/char literals never leak tokens
    (a banned identifier inside a string is NOT a finding);
  * raw strings R"delim(...)delim" are skipped correctly;
  * line numbers survive multi-line constructs;
  * ``#include "..."`` edges are captured; other preprocessor lines are
    dropped wholesale (including line continuations) so macro bodies do
    not fake function bodies — except that object-like marker macros in
    normal code positions (PS_RNG_WORDS etc.) are ordinary identifiers.
"""

import re

from . import ir

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Pre-processed numbers: ints, floats, hex, exponents, digit separators,
# and literal suffixes. One token per literal is all the checks need.
_NUMBER_RE = re.compile(
    r"(?:0[xX][0-9a-fA-F']+|(?:\d[\d']*)?\.\d[\d']*(?:[eE][+-]?\d+)?"
    r"|\d[\d']*\.?(?:[eE][+-]?\d+)?)[uUlLfF]*")
_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# Multi-char operators that matter for pattern matching (::, ->, etc.).
_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
           "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--")


def tokenize(text, path):
    """Returns an ir.SourceFile for `text` (repo-relative `path`)."""
    tokens = []
    includes = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments.
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            line += text.count("\n", i, end)
            i = end
            continue
        # Preprocessor lines: keep #include "..." edges, drop the rest
        # (respecting backslash continuations).
        if c == "#" and _at_line_start(text, i):
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    k = n
                if text[max(i, k - 1):k] == "\\" or (
                        k >= 2 and text[k - 2:k] == "\\\r"):
                    j = k + 1
                    continue
                break
            m = _INCLUDE_RE.match(text[i:k])
            if m:
                includes.append((line, m.group(1)))
            line += text.count("\n", i, k)
            i = k
            continue
        # Raw strings.
        m = re.match(r'(?:u8|[uUL])?R"([^()\\ \t\n]*)\(', text[i:])
        if m:
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            end = n if j < 0 else j + len(close)
            tokens.append(ir.Token(ir.STRING, text[i:end], line))
            line += text.count("\n", i, end)
            i = end
            continue
        # Ordinary string / char literals (with escapes).
        if c == '"' or c == "'" or re.match(r'(?:u8|[uUL])["\']', text[i:]):
            start = i
            while text[i] not in "\"'":
                i += 1
            quote = text[i]
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i = min(i + 1, n)
            kind = ir.STRING if quote == '"' else ir.CHAR
            tokens.append(ir.Token(kind, text[start:i], line))
            line += text.count("\n", start, i)
            continue
        # Identifiers / keywords / marker macros.
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(ir.Token(ir.IDENT, m.group(0), line))
            i = m.end()
            continue
        # Numbers.
        if c.isdigit() or (c == "." and i + 1 < n and
                           text[i + 1].isdigit()):
            m = _NUMBER_RE.match(text, i)
            tokens.append(ir.Token(ir.NUMBER, m.group(0), line))
            i = m.end()
            continue
        # Punctuation (longest match first).
        for group in (_PUNCT3, _PUNCT2):
            hit = next((p for p in group if text.startswith(p, i)), None)
            if hit:
                tokens.append(ir.Token(ir.PUNCT, hit, line))
                i += len(hit)
                break
        else:
            tokens.append(ir.Token(ir.PUNCT, c, line))
            i += 1
    return ir.SourceFile(path=path, tokens=tokens, includes=includes)


def _at_line_start(text, i):
    j = i - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    return j < 0 or text[j] == "\n"
