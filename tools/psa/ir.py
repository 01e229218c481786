"""Shared intermediate representation for the analyzer.

The tokenizer lowers each file to these structures, and every check is
written against them:

  Token       -- (kind, text, line); comments and whitespace dropped.
  SourceFile  -- tokens + include edges + repo-relative path/module.
  Finding     -- one diagnostic, with the check id SARIF keys off.
"""

from dataclasses import dataclass, field

# Token kinds.
IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
PUNCT = "punct"


@dataclass
class Token:
    kind: str
    text: str
    line: int

    def __repr__(self):  # compact in check debugging output
        return f"{self.text}@{self.line}"


@dataclass
class SourceFile:
    """One analyzed file, tokenized."""

    path: str  # repo-relative, posix separators (e.g. src/ldp/grr.cc)
    tokens: list  # list[Token]
    includes: list = field(default_factory=list)  # [(line, "ldp/grr.h")]

    @property
    def module(self):
        """The src/<module>/ the file belongs to, or None."""
        parts = self.path.split("/")
        if len(parts) >= 3 and parts[0] == "src":
            return parts[1]
        return None


# Severities map onto SARIF result levels.
ERROR = "error"
WARNING = "warning"
NOTE = "note"


@dataclass
class Finding:
    check: str  # check id, e.g. "psa-rng-order"
    path: str  # repo-relative file
    line: int
    message: str
    severity: str = ERROR
    suppressed_by: str = ""  # set by the suppression pass

    def render(self):
        tag = "" if self.severity == ERROR else f" [{self.severity}]"
        return f"{self.path}:{self.line}: {self.check}{tag}: {self.message}"
