#ifndef PRIVSHAPE_COMMON_ANALYSIS_ANNOTATIONS_H_
#define PRIVSHAPE_COMMON_ANALYSIS_ANNOTATIONS_H_

/// Semantic-contract markers consumed by the PrivShape Analyzer
/// (tools/psa/, driven through tools/analyze.py). They attach
/// machine-checkable contracts to function declarations/definitions:
///
///   PS_REPORT_PATH
///     The function runs on the per-report path: it (transitively)
///     produces, perturbs, or aggregates a client report. Inside it the
///     analyzer bans raw randomness (std::*_distribution, the Rng
///     convenience draws, direct engine operator() access) — engine
///     words may only be consumed through the blessed batched helpers
///     (LazyMt64::FillU64 / Rng::FillU64) or through functions that are
///     themselves annotated — and applies the strict determinism rules
///     (no wall-clock reads, no unordered-container iteration feeding
///     results, no float/text round-trips).
///
///   PS_RNG_CANONICAL
///     The function *defines* a canonical randomness-consumption order
///     (a mechanism's own perturbation routine). Raw Rng draws are
///     allowed inside it — this is the single place the order lives —
///     and report-path code may call it. Every mechanism's Perturb /
///     Select carries this (or the stronger PS_RNG_WORDS below);
///     call sites must go through them, never re-derive the draws.
///
///   PS_RNG_WORDS(n)
///     Implies PS_RNG_CANONICAL, and additionally declares that one
///     call consumes exactly `n` raw engine words. For an integer
///     literal `n` the analyzer cross-checks the declared count against
///     the call graph (FillU64 literals plus annotated callees must sum
///     to `n`, on a straight-line path). A symbolic expression (e.g.
///     PS_RNG_WORDS(d_), one word per OUE cell) documents a
///     data-dependent count; the analyzer then only enforces that every
///     consumption site is blessed. Declaration and definition
///     annotations must agree.
///
/// Under Clang the markers also expand to `annotate` attributes so AST
/// tooling sees them natively; on other compilers they vanish. The
/// analyzer recognizes them by spelling, so the contracts are enforced
/// whatever the compiler.
#if defined(__clang__)
#define PS_REPORT_PATH __attribute__((annotate("ps_report_path")))
#define PS_RNG_CANONICAL __attribute__((annotate("ps_rng_canonical")))
#define PS_RNG_WORDS(n) __attribute__((annotate("ps_rng_words=" #n)))
#else
#define PS_REPORT_PATH
#define PS_RNG_CANONICAL
#define PS_RNG_WORDS(n)
#endif

#endif  // PRIVSHAPE_COMMON_ANALYSIS_ANNOTATIONS_H_
