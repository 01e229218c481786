#ifndef PRIVSHAPE_CORE_SUBSHAPE_H_
#define PRIVSHAPE_CORE_SUBSHAPE_H_

#include <vector>

#include "series/sequence.h"
#include "trie/trie.h"

namespace privshape::core {

/// Index of an adjacent-symbol pair within the GRR report domain.
///
/// Compressed sequences never repeat a symbol, so the valid domain has
/// t*(t-1) ordered pairs (`allow_repeats = false`); the "No Compression"
/// ablation uses the full t*t grid. One extra sentinel bucket (the last
/// index) absorbs padded positions — see SubShapeDomainSize().
size_t PairToIndex(Symbol a, Symbol b, int t, bool allow_repeats);
trie::Transition IndexToPair(size_t index, int t, bool allow_repeats);

/// Report domain size incl. the sentinel padding bucket.
size_t SubShapeDomainSize(int t, bool allow_repeats);

/// Per-level frequent sub-shape estimates (§IV-B).
struct SubShapeEstimates {
  /// top_transitions[j-1] = the top-m transitions at level j (the pairs
  /// (s_j, s_{j+1}) of 1-indexed positions), ordered by estimated count.
  std::vector<std::vector<trie::Transition>> top_transitions;
  /// Raw debiased counts per level and pair index (diagnostics/tests).
  std::vector<std::vector<double>> counts;
};

/// P_b's server-side ranking step (PrivShapeServer, which both the
/// in-process runner and the collector drive): given per-level debiased
/// pair counts (each vector sized SubShapeDomainSize, sentinel last),
/// keeps the top-m real pairs per level by estimated count (stable
/// order; sentinel dropped).
SubShapeEstimates RankSubShapes(
    const std::vector<std::vector<double>>& level_counts, int t, size_t top_m,
    bool allow_repeats);

}  // namespace privshape::core

#endif  // PRIVSHAPE_CORE_SUBSHAPE_H_
