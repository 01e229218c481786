#include "distance/candidate_table.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/simd.h"

namespace privshape::dist {

namespace {

using V = simd::VecI16;
constexpr size_t kLanes = simd::kI16Lanes;

/// +infinity of the int16 DP: saturating adds keep it there, and `min`
/// against any finite cell returns the finite cell, as with doubles.
constexpr int16_t kInf16 = std::numeric_limits<int16_t>::max();

// A DTW cell of an n x m table is a sum over a warping path of at most
// n + m - 1 costs |a - b| <= 255, a SED cell at most n + m; kMaxLanePair
// is the largest n + m with (n + m) * 255 < kInf16.
constexpr size_t kMaxCost = std::numeric_limits<Symbol>::max();
static_assert(CandidateTable::kMaxLanePair * kMaxCost < kInf16 &&
                  (CandidateTable::kMaxLanePair + 1) * kMaxCost >= kInf16,
              "kMaxLanePair must be the int16 guard");

/// True when a pair reading row r of a depth-m column has every cell it
/// depends on inside the int16 lanes. DtwView's empty-word rule (a sum of
/// levels) is no DP, so DTW pairs with an empty side take the scalar
/// kernel.
bool InLanes(size_t r, size_t m, bool dtw) {
  return r + m <= CandidateTable::kMaxLanePair && (!dtw || (r > 0 && m > 0));
}

/// The DTW column of a node from its parent's, for every lane's word at
/// once: col[i] = |w_i - symbol| + min(parent[i], parent[i-1], col[i-1]),
/// DtwView's D[i][j] = cost + min(D[i][j-1], D[i-1][j-1], D[i-1][j]) on
/// integers, with row 0 at +infinity past the root. `words` holds row
/// i's symbols at [(i - 1) * kLanes].
void DtwColumn(const int16_t* words, const int16_t* parent, size_t rows,
               Symbol symbol, int16_t* col) {
  const V inf = V::Set1(kInf16);
  const V b = V::Set1(symbol);
  inf.Store(col);
  V up = inf;
  V diag = V::Load(parent);
  // Cell i sits at [i * kLanes]; its word symbol at [(i - 1) * kLanes].
  for (size_t k = kLanes; k <= rows * kLanes; k += kLanes) {
    const V left = V::Load(parent + k);
    const V cost = V::AbsDiff(V::Load(words + k - kLanes), b);
    // min(left, diag) does not wait on the cell above.
    up = V::AddSat(cost, V::Min(V::Min(left, diag), up));
    up.Store(col + k);
    diag = left;
  }
}

/// The SED column of a depth-`depth` node, laid out as in DtwColumn:
/// EditView's D[i][j] = min(D[i-1][j] + 1, D[i][j-1] + 1,
/// D[i-1][j-1] + [w_i != symbol]) on integers, with row 0 at `depth`.
void SedColumn(const int16_t* words, const int16_t* parent, size_t rows,
               Symbol symbol, int16_t depth, int16_t* col) {
  const V one = V::Set1(1);
  const V b = V::Set1(symbol);
  V up = V::Set1(depth);
  up.Store(col);
  V diag = V::Load(parent);
  for (size_t k = kLanes; k <= rows * kLanes; k += kLanes) {
    const V left = V::Load(parent + k);
    const V sub = V::AddSat(diag, V::NeqCost(V::Load(words + k - kLanes), b));
    // Only up + 1 waits on the cell above.
    up = V::Min(V::AddSat(up, one), V::Min(V::AddSat(left, one), sub));
    up.Store(col + k);
    diag = left;
  }
}

}  // namespace

CandidateTable CandidateTable::Build(std::vector<Sequence> candidates) {
  CandidateTable table;
  table.candidates_ = std::move(candidates);
  const std::vector<Sequence>& cands = table.candidates_;
  std::vector<uint32_t> order;
  for (size_t i = 0; i < cands.size(); ++i) {
    (cands[i].size() <= kMaxLanePair ? order : table.long_)
        .push_back(static_cast<uint32_t>(i));
  }
  // In lexicographic order each candidate adds the nodes past its longest
  // common prefix with the one before it, so nodes are created in
  // preorder, and the candidates' end nodes in preorder too: terminals_
  // lists them node by node. The stable sort keeps duplicates in
  // original order, so two builds of one list are identical.
  std::stable_sort(order.begin(), order.end(),
                   [&cands](uint32_t a, uint32_t b) {
                     return cands[a] < cands[b];
                   });
  table.nodes_.push_back(Node{0, 0, 0});
  std::vector<size_t> path = {0};  // the current path's node per depth
  const Sequence* prev = nullptr;
  for (uint32_t c : order) {
    const Sequence& cand = cands[c];
    size_t common = 0;
    if (prev != nullptr) {
      size_t limit = std::min(cand.size(), prev->size());
      while (common < limit && cand[common] == (*prev)[common]) ++common;
    }
    path.resize(common + 1);
    for (size_t d = common + 1; d <= cand.size(); ++d) {
      path.push_back(table.nodes_.size());
      table.nodes_.push_back(
          Node{cand[d - 1], static_cast<uint16_t>(d), 0});
    }
    ++table.nodes_[path[cand.size()]].terminals;
    table.terminals_.push_back(c);
    table.depth_ = std::max(table.depth_, cand.size());
    prev = &cand;
  }
  return table;
}

template <bool kDtw>
void CandidateTable::MatchLanes(const SymbolView* words, size_t lanes,
                                const SequenceDistance& distance,
                                bool prefix_compare, TableScratch* scratch,
                                double* rows) const {
  const size_t stride = candidates_.size();
  // The scalar reference kernel for one pair.
  auto scalar = [&](size_t lane, const Sequence& cand) {
    SymbolView word = words[lane];
    if (prefix_compare && word.size() > cand.size()) {
      word = word.Sub(0, cand.size());
    }
    return distance.Distance(word, SymbolView(cand), &scratch->dtw);
  };
  for (uint32_t c : long_) {
    for (size_t lane = 0; lane < lanes; ++lane) {
      rows[lane * stride + c] = scalar(lane, candidates_[c]);
    }
  }

  // The columns hold the rows some pair in the lanes reads: up to the
  // word's length, or with prefix_compare the deepest candidate's.
  size_t lengths[kLanes] = {};
  size_t shortest = kMaxLanePair, longest = 0, height = 0;
  for (size_t lane = 0; lane < lanes; ++lane) {
    size_t n = words[lane].size();
    lengths[lane] = n;
    shortest = std::min(shortest, n);
    longest = std::max(longest, n);
    if (prefix_compare) n = std::min(n, depth_);
    if (n <= kMaxLanePair) height = std::max(height, n);
  }
  const size_t column = (height + 1) * kLanes;
  scratch->words.assign(height * kLanes, 0);
  for (size_t lane = 0; lane < lanes; ++lane) {
    size_t n = std::min(lengths[lane], height);
    for (size_t i = 0; i < n; ++i) {
      scratch->words[i * kLanes + lane] = words[lane][i];
    }
  }
  // reserve first: growing by exactly what is needed keeps the capacity
  // inside the documented bound.
  scratch->columns.reserve((depth_ + 1) * column);
  scratch->columns.resize((depth_ + 1) * column);
  int16_t* stack = scratch->columns.data();
  const int16_t* plane = scratch->words.data();
  // The root's column: D[0][0] = 0 and D[i][0] = +infinity (DTW) or i
  // (SED).
  for (size_t i = 0; i <= height; ++i) {
    int16_t cell = kDtw ? (i == 0 ? 0 : kInf16) : static_cast<int16_t>(i);
    V::Set1(cell).Store(stack + i * kLanes);
  }

  const uint32_t* ends = terminals_.data();
  double values[kLanes];
  for (const Node& node : nodes_) {
    const size_t depth = node.depth;
    int16_t* col = stack + depth * column;
    if (depth > 0) {
      if constexpr (kDtw) {
        DtwColumn(plane, col - column, height, node.symbol, col);
      } else {
        SedColumn(plane, col - column, height, node.symbol,
                  static_cast<int16_t>(depth), col);
      }
    }
    if (node.terminals == 0) continue;
    // Each lane's value at this node: row min(|w|, depth) of the column
    // with prefix_compare, row |w| without. Duplicates share the node,
    // hence the value.
    const size_t deepest_row =
        prefix_compare ? std::min(longest, depth) : longest;
    if (InLanes(std::min(shortest, depth), depth, kDtw) &&
        deepest_row + depth <= kMaxLanePair) {
      for (size_t lane = 0; lane < lanes; ++lane) {
        const size_t n = lengths[lane];
        const size_t r = prefix_compare && n > depth ? depth : n;
        values[lane] = col[r * kLanes + lane];
      }
    } else {
      for (size_t lane = 0; lane < lanes; ++lane) {
        const size_t n = lengths[lane];
        const size_t r = prefix_compare && n > depth ? depth : n;
        values[lane] = InLanes(r, depth, kDtw)
                           ? col[r * kLanes + lane]
                           : scalar(lane, candidates_[ends[0]]);
      }
    }
    for (uint32_t k = 0; k < node.terminals; ++k) {
      double* out = rows + ends[k];
      for (size_t lane = 0; lane < lanes; ++lane) {
        out[lane * stride] = values[lane];
      }
    }
    ends += node.terminals;
  }
}

PS_REPORT_PATH
void CandidateTable::MatchBlock(const SymbolView* words, size_t count,
                                const SequenceDistance& distance,
                                bool prefix_compare, TableScratch* scratch,
                                std::vector<double>* rows) const {
  const size_t stride = candidates_.size();
  rows->resize(count * stride);
  if (stride == 0) return;
  TableScratch local;
  TableScratch* s = scratch != nullptr ? scratch : &local;
  const Metric metric = distance.metric();
  if (metric != Metric::kDtw && metric != Metric::kSed) {
    // No lane kernel for this metric: the per-pair reference loop,
    // identical to core::MatchDistances.
    for (size_t w = 0; w < count; ++w) {
      for (size_t cand = 0; cand < stride; ++cand) {
        const Sequence& shape = candidates_[cand];
        SymbolView lhs = prefix_compare && words[w].size() > shape.size()
                             ? words[w].Sub(0, shape.size())
                             : words[w];
        (*rows)[w * stride + cand] =
            distance.Distance(lhs, SymbolView(shape), &s->dtw);
      }
    }
    return;
  }
  for (size_t first = 0; first < count; first += kLanes) {
    const size_t lanes = std::min(kLanes, count - first);
    double* out = rows->data() + first * stride;
    if (metric == Metric::kDtw) {
      MatchLanes<true>(words + first, lanes, distance, prefix_compare, s, out);
    } else {
      MatchLanes<false>(words + first, lanes, distance, prefix_compare, s,
                        out);
    }
  }
}

PS_REPORT_PATH
void CandidateTable::MatchInto(SymbolView word,
                               const SequenceDistance& distance,
                               bool prefix_compare, TableScratch* scratch,
                               std::vector<double>* out) const {
  MatchBlock(&word, 1, distance, prefix_compare, scratch, out);
}

PS_REPORT_PATH
size_t CandidateTable::Closest(SymbolView word,
                               const SequenceDistance& distance,
                               TableScratch* scratch) const {
  if (candidates_.empty()) return 0;
  TableScratch local;
  TableScratch* s = scratch != nullptr ? scratch : &local;
  MatchInto(word, distance, /*prefix_compare=*/false, s, &s->dists);
  return FirstMinimum(s->dists);
}

size_t FirstMinimum(Span<const double> row) {
  // min_element keeps the first of equal minima.
  return static_cast<size_t>(std::min_element(row.begin(), row.end()) -
                             row.begin());
}

}  // namespace privshape::dist
