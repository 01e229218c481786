"""PrivShape Analyzer (psa): repo-specific semantic static analysis.

A check-plugin framework that walks the C++ tree under src/ and
enforces the semantic contracts generic tools cannot see: the canonical
RNG consumption order, report-path determinism, privacy-budget flow, and
telemetry/layering purity. A pure-Python C++ tokenizer lowers each file
to the token IR the checks run on, so the analyzer needs nothing beyond
the standard library.

Entry point: ``tools/analyze.py`` (also runs the layering lint).
"""

__version__ = "1.0.0"
