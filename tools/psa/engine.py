"""Frontend: turn a source tree into ir.SourceFile objects.

File discovery walks src/; each file is lowered to the token IR by the
pure-Python tokenizer (tools/psa/tokenizer.py), which needs nothing
beyond the standard library.
"""

import os

from . import tokenizer

SOURCE_EXTS = (".h", ".cc")
SKIP_DIRS = {"CMakeFiles"}


def discover_files(root):
    """Repo-relative source paths to analyze, deterministically ordered.

    Only first-party files under src/ are returned: the semantic
    contracts are about library code, not tests/bench/examples (which
    legitimately use literals and ad-hoc randomness).
    """
    paths = []
    src_root = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(SOURCE_EXTS):
                full = os.path.join(dirpath, name)
                paths.append(os.path.relpath(full, root).replace(os.sep, "/"))
    return sorted(paths)


def parse(root, rel_path):
    """Tokenizes one repo-relative file into an ir.SourceFile."""
    with open(os.path.join(root, rel_path), encoding="utf-8",
              errors="replace") as f:
        return tokenizer.tokenize(f.read(), rel_path)
