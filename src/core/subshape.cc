#include "core/subshape.h"

#include <algorithm>
#include <numeric>

namespace privshape::core {

size_t PairToIndex(Symbol a, Symbol b, int t, bool allow_repeats) {
  size_t ai = a, bi = b;
  if (allow_repeats) {
    return ai * static_cast<size_t>(t) + bi;
  }
  // Skip the diagonal: row a has t-1 entries.
  return ai * static_cast<size_t>(t - 1) + (bi > ai ? bi - 1 : bi);
}

trie::Transition IndexToPair(size_t index, int t, bool allow_repeats) {
  if (allow_repeats) {
    return {static_cast<Symbol>(index / static_cast<size_t>(t)),
            static_cast<Symbol>(index % static_cast<size_t>(t))};
  }
  size_t row = index / static_cast<size_t>(t - 1);
  size_t col = index % static_cast<size_t>(t - 1);
  if (col >= row) ++col;
  return {static_cast<Symbol>(row), static_cast<Symbol>(col)};
}

size_t SubShapeDomainSize(int t, bool allow_repeats) {
  size_t pairs = allow_repeats
                     ? static_cast<size_t>(t) * static_cast<size_t>(t)
                     : static_cast<size_t>(t) * static_cast<size_t>(t - 1);
  return pairs + 1;  // sentinel padding bucket
}

SubShapeEstimates RankSubShapes(
    const std::vector<std::vector<double>>& level_counts, int t, size_t top_m,
    bool allow_repeats) {
  SubShapeEstimates estimates;
  estimates.counts = level_counts;
  estimates.top_transitions.resize(level_counts.size());
  for (size_t lvl = 0; lvl < level_counts.size(); ++lvl) {
    const std::vector<double>& counts = level_counts[lvl];
    if (counts.empty()) continue;
    // Rank real pairs only (drop the sentinel bucket).
    size_t sentinel = counts.size() - 1;
    std::vector<size_t> order(sentinel);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return counts[a] > counts[b];
    });
    size_t keep = std::min(top_m, order.size());
    for (size_t i = 0; i < keep; ++i) {
      estimates.top_transitions[lvl].push_back(
          IndexToPair(order[i], t, allow_repeats));
    }
  }
  return estimates;
}

}  // namespace privshape::core
