#include "distance/candidate_table.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "common/simd.h"

namespace privshape::dist {

namespace {

/// +infinity of the int16 DP: saturating adds keep it there, and `min`
/// against any finite cell returns the finite cell, as with doubles.
constexpr int16_t kInf16 = std::numeric_limits<int16_t>::max();

/// True when every cell of an n x m DTW or SED table is an integer below
/// kInf16, so the int16 lanes reproduce the double reference exactly. A
/// DTW cell is a sum over a warping path of at most n + m - 1 costs
/// |a - b| <= 255; a SED cell is at most n + m. Beyond this (n + m >= 129)
/// the group takes the scalar reference kernel instead.
bool FitsInt16Lanes(size_t n, size_t m) {
  constexpr size_t kMaxCost = std::numeric_limits<Symbol>::max();
  return (n + m) * kMaxCost < static_cast<size_t>(kInf16);
}

/// Two-row DTW DP over kBlocks independent blocks of V::kLanes
/// candidates. Symbol j of block b starts at
/// `plane + j * stride + lane0 + b * kLanes`; `prev`/`curr` are
/// (m + 1) * kBlocks * kLanes cells, column j holding the blocks side by
/// side. Per lane this is DtwView's recurrence, curr[j] =
/// |w_i - b_j| + min(prev[j], curr[j-1], prev[j-1]), on integers, so the
/// result equals the double kernel's whenever FitsInt16Lanes holds. The
/// blocks share no data: a second block only gives the core independent
/// work while one block waits on its min -> add chain. Callers guarantee
/// n >= 1 and m >= 1 (the empty cases take DtwView's special branch).
template <typename V, size_t kBlocks>
void DtwSweep(const Symbol* word, size_t n, const int16_t* plane,
              size_t stride, size_t lane0, size_t m, int16_t* prev,
              int16_t* curr, int16_t* out) {
  constexpr size_t kW = V::kLanes;
  constexpr size_t kCol = kBlocks * kW;
  const V inf = V::Set1(kInf16);
  for (size_t b = 0; b < kBlocks; ++b) V::Set1(0).Store(prev + b * kW);
  for (size_t k = kCol; k < (m + 1) * kCol; k += kW) inf.Store(prev + k);
  for (size_t i = 1; i <= n; ++i) {
    const V wi = V::Set1(static_cast<int16_t>(word[i - 1]));
    V curr_jm1[kBlocks];
    V prev_jm1[kBlocks];
    for (size_t b = 0; b < kBlocks; ++b) {
      inf.Store(curr + b * kW);
      curr_jm1[b] = inf;
      prev_jm1[b] = V::Load(prev + b * kW);
    }
    for (size_t j = 1; j <= m; ++j) {
      const int16_t* sym = plane + (j - 1) * stride + lane0;
      for (size_t b = 0; b < kBlocks; ++b) {
        V cost = V::AbsDiff(wi, V::Load(sym + b * kW));
        V prev_j = V::Load(prev + j * kCol + b * kW);
        // min(prev[j], prev[j-1]) does not wait on the previous cell.
        V best = V::Min(V::Min(prev_j, prev_jm1[b]), curr_jm1[b]);
        V cj = V::AddSat(cost, best);
        cj.Store(curr + j * kCol + b * kW);
        curr_jm1[b] = cj;
        prev_jm1[b] = prev_j;
      }
    }
    std::swap(prev, curr);
  }
  for (size_t b = 0; b < kBlocks; ++b) {
    V::Load(prev + m * kCol + b * kW).Store(out + b * kW);
  }
}

/// Two-row Levenshtein DP over kBlocks blocks of V::kLanes candidates,
/// laid out as in DtwSweep; per lane exactly EditView's recurrence,
/// curr[j] = min(prev[j] + 1, curr[j-1] + 1, prev[j-1] + neq-cost), on
/// integers. Handles n == 0 and m == 0 naturally (the DP degenerates to
/// m resp. n), so it needs no empty-case branch.
template <typename V, size_t kBlocks>
void SedSweep(const Symbol* word, size_t n, const int16_t* plane,
              size_t stride, size_t lane0, size_t m, int16_t* prev,
              int16_t* curr, int16_t* out) {
  constexpr size_t kW = V::kLanes;
  constexpr size_t kCol = kBlocks * kW;
  for (size_t j = 0; j <= m; ++j) {
    const V cj = V::Set1(static_cast<int16_t>(j));
    for (size_t b = 0; b < kBlocks; ++b) cj.Store(prev + j * kCol + b * kW);
  }
  const V one = V::Set1(1);
  for (size_t i = 1; i <= n; ++i) {
    const V wi = V::Set1(static_cast<int16_t>(word[i - 1]));
    const V ci = V::Set1(static_cast<int16_t>(i));
    V curr_jm1[kBlocks];
    V prev_jm1[kBlocks];
    for (size_t b = 0; b < kBlocks; ++b) {
      ci.Store(curr + b * kW);
      curr_jm1[b] = ci;
      prev_jm1[b] = V::Load(prev + b * kW);
    }
    for (size_t j = 1; j <= m; ++j) {
      const int16_t* sym = plane + (j - 1) * stride + lane0;
      for (size_t b = 0; b < kBlocks; ++b) {
        V sub = V::AddSat(prev_jm1[b], V::NeqCost(wi, V::Load(sym + b * kW)));
        V prev_j = V::Load(prev + j * kCol + b * kW);
        // Only curr[j-1] + 1 waits on the previous cell.
        V cj = V::Min(V::AddSat(curr_jm1[b], one),
                      V::Min(V::AddSat(prev_j, one), sub));
        cj.Store(curr + j * kCol + b * kW);
        curr_jm1[b] = cj;
        prev_jm1[b] = prev_j;
      }
    }
    std::swap(prev, curr);
  }
  for (size_t b = 0; b < kBlocks; ++b) {
    V::Load(prev + m * kCol + b * kW).Store(out + b * kW);
  }
}

}  // namespace

CandidateTable CandidateTable::Build(std::vector<Sequence> candidates) {
  CandidateTable table;
  table.candidates_ = std::move(candidates);
  // Deterministic grouping: ascending length, original order within a
  // group (std::map keeps lengths sorted; indices are appended in
  // original order, so two builds of the same list are identical).
  std::map<size_t, std::vector<uint32_t>> by_length;
  for (size_t i = 0; i < table.candidates_.size(); ++i) {
    by_length[table.candidates_[i].size()].push_back(
        static_cast<uint32_t>(i));
  }
  constexpr size_t kW = simd::kI16Lanes;
  for (const auto& [length, indices] : by_length) {
    Group g;
    g.length = length;
    g.count = indices.size();
    g.padded = (indices.size() + kW - 1) / kW * kW;
    g.plane_offset = table.symbols_.size();
    g.index_offset = table.original_index_.size();
    table.symbols_.resize(table.symbols_.size() + length * g.padded, 0);
    for (size_t c = 0; c < g.count; ++c) {
      const Sequence& seq = table.candidates_[indices[c]];
      for (size_t j = 0; j < length; ++j) {
        table.symbols_[g.plane_offset + j * g.padded + c] = seq[j];
      }
    }
    table.original_index_.insert(table.original_index_.end(),
                                 indices.begin(), indices.end());
    table.groups_.push_back(g);
  }
  return table;
}

PS_REPORT_PATH
void CandidateTable::MatchInto(SymbolView word,
                               const SequenceDistance& distance,
                               bool prefix_compare, TableScratch* scratch,
                               std::vector<double>* out) const {
  out->resize(candidates_.size());
  TableScratch local;
  TableScratch* s = scratch != nullptr ? scratch : &local;
  Metric metric = distance.metric();
  if (metric != Metric::kDtw && metric != Metric::kSed) {
    // No vectorized kernel for this metric: the per-candidate reference
    // loop, identical to core::MatchDistances.
    for (size_t cand = 0; cand < candidates_.size(); ++cand) {
      const Sequence& shape = candidates_[cand];
      SymbolView lhs = prefix_compare && word.size() > shape.size()
                           ? word.Sub(0, shape.size())
                           : word;
      (*out)[cand] = distance.Distance(lhs, SymbolView(shape), &s->dtw);
    }
    return;
  }
  using V = simd::VecI16;
  using SweepFn = void (*)(const Symbol*, size_t, const int16_t*, size_t,
                           size_t, size_t, int16_t*, int16_t*, int16_t*);
  const bool dtw = metric == Metric::kDtw;
  const SweepFn one_block = dtw ? DtwSweep<V, 1> : SedSweep<V, 1>;
  const SweepFn two_blocks = dtw ? DtwSweep<V, 2> : SedSweep<V, 2>;
  constexpr size_t kW = simd::kI16Lanes;
  for (const Group& g : groups_) {
    // All candidates in a group share one length, hence one prefix view.
    SymbolView lhs = prefix_compare && word.size() > g.length
                         ? word.Sub(0, g.length)
                         : word;
    size_t n = lhs.size();
    size_t m = g.length;
    if ((dtw && (n == 0 || m == 0)) || !FitsInt16Lanes(n, m)) {
      // DtwView's empty-word branch (sum of levels) is not a DP, and a
      // table whose cells may not fit int16 needs doubles: take the
      // scalar reference kernel per candidate.
      for (size_t c = 0; c < g.count; ++c) {
        size_t orig = original_index_[g.index_offset + c];
        (*out)[orig] =
            distance.Distance(lhs, SymbolView(candidates_[orig]), &s->dtw);
      }
      continue;
    }
    s->prev.resize((m + 1) * 2 * kW);
    s->curr.resize((m + 1) * 2 * kW);
    const int16_t* plane = symbols_.data() + g.plane_offset;
    int16_t lane_out[2 * kW] = {};
    for (size_t lane0 = 0; lane0 < g.padded;) {
      // Two blocks per sweep while two remain, then the odd one alone.
      const size_t lanes = g.padded - lane0 >= 2 * kW ? 2 * kW : kW;
      (lanes == kW ? one_block : two_blocks)(lhs.data(), n, plane, g.padded,
                                             lane0, m, s->prev.data(),
                                             s->curr.data(), lane_out);
      for (size_t lane = 0; lane < lanes && lane0 + lane < g.count; ++lane) {
        (*out)[original_index_[g.index_offset + lane0 + lane]] =
            static_cast<double>(lane_out[lane]);
      }
      lane0 += lanes;
    }
  }
}

PS_REPORT_PATH
size_t CandidateTable::Closest(SymbolView word,
                               const SequenceDistance& distance,
                               TableScratch* scratch) const {
  if (candidates_.empty()) return 0;
  TableScratch local;
  TableScratch* s = scratch != nullptr ? scratch : &local;
  MatchInto(word, distance, /*prefix_compare=*/false, s, &s->dists);
  // min_element keeps the first of equal minima: ties go to the first
  // original index.
  return static_cast<size_t>(
      std::min_element(s->dists.begin(), s->dists.end()) - s->dists.begin());
}

}  // namespace privshape::dist
