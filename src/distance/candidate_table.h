/// \file
/// The candidate trie: the one way words are matched against a candidate
/// list — P_c's EM selection, P_d/P_e's closest-candidate report,
/// Algorithm 1's per-level selection and Def. 4's nearest-shape
/// assignment all call MatchBlock (MatchInto and Closest are its one-word
/// case). A collection round broadcasts ONE candidate list that millions
/// of users match against, and that list is a trie frontier (Algorithm 2:
/// the top c*k nodes of the previous level, each expanded by its allowed
/// next symbols), so its candidates share almost all of their prefixes.
/// `Build` turns the list into a trie once per round: shared prefixes
/// share a node, and duplicates share their end node.
///
/// The DTW/SED table of a word against a candidate is computed one column
/// per candidate symbol, and column j depends only on column j - 1 and
/// symbol j. So a node's column serves every candidate below it, and
/// MatchBlock computes one column per trie node, in depth-first order,
/// for a block of up to `simd::kI16Lanes` words at once — one word per
/// int16 lane, every lane running the scalar recurrence. The columns of
/// the current path sit on a per-depth stack. Candidate c reads its
/// word's row from the column of its node: row min(|w|, |c|) with
/// `prefix_compare` (the word's |c|-prefix has the same first rows),
/// row |w| without.
///
/// Contract: every row is bit-identical to the scalar reference path
/// (`core::MatchDistances` / `core::ClosestCandidate` over
/// `dist::SequenceDistance`) at every SIMD level, including first-index
/// tie-breaking in Closest. Symbols are bytes, so the DTW cells a pair
/// reads are integers of at most (n + m - 1) * 255 and its SED cells at
/// most n + m; while n + m <= 128 the int16 lanes hold each of them
/// exactly (INT16_MAX standing for +infinity, saturating adds keeping it
/// there), and converting the result to double gives the reference's
/// bytes. A pair past this guard (n + m >= 129, which no paper
/// configuration reaches) and DTW's empty-word case take the scalar
/// kernel for that pair alone, as do the metrics without a lane kernel
/// (Euclidean/Hausdorff ablations). The scalar kernels in distance.cc are
/// the reference; tests/distance_simd_test.cc and
/// fuzz/fuzz_candidate_table.cc enforce the match.

#ifndef PRIVSHAPE_DISTANCE_CANDIDATE_TABLE_H_
#define PRIVSHAPE_DISTANCE_CANDIDATE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/simd.h"
#include "common/span.h"
#include "common/status.h"
#include "distance/distance.h"
#include "series/sequence.h"

namespace privshape::dist {

/// Caller-owned scratch for MatchBlock: the lane block's words, the
/// column stack of the current trie path, a row buffer for Closest, and
/// the scalar kernel's rows for the pairs past the int16 guard. One
/// instance per worker thread; grown monotonically, so steady-state
/// matching allocates nothing.
///
/// Bound: `words` holds at most 128 x kI16Lanes cells and `columns` at
/// most (min(D, 128) + 1) x (min(N, 128) + 1) x kI16Lanes, where D is the
/// deepest candidate and N the longest word of the block — never a
/// multiple of the candidate count. The scalar rows hold |candidate| + 1
/// doubles each for the longest candidate a pair past the guard meets.
struct TableScratch {
  std::vector<int16_t> words;    ///< symbol i of lane u at [i * lanes + u]
  std::vector<int16_t> columns;  ///< depth d's column at [d * (rows+1) * lanes]
  std::vector<double> dists;     ///< one word's row, for Closest
  DtwScratch dtw;                ///< scalar kernel rows
};

/// Immutable trie view of one round's candidate list. Copying is allowed
/// (used when a round context is rebuilt) but never happens per report.
class CandidateTable {
 public:
  /// Candidates longer than this never fit the int16 lanes (n + m <= 128
  /// leaves no room for a word), so they stay out of the trie and every
  /// pair with one takes the scalar kernel.
  static constexpr size_t kMaxLanePair = 128;

  CandidateTable() = default;

  /// Builds the trie of the list. The original list (and its indexing)
  /// is retained: every row reports the candidates in original order.
  static CandidateTable Build(std::vector<Sequence> candidates);

  const std::vector<Sequence>& candidates() const { return candidates_; }
  size_t size() const { return candidates_.size(); }
  bool empty() const { return candidates_.empty(); }

  /// Fills the distance rows of words[0..count): (*rows)[w * size() + i]
  /// = distance(words[w], candidate i), in original candidate order;
  /// `rows` is resized to count * size(). With `prefix_compare`, a word
  /// longer than a candidate is compared through its equally long prefix
  /// (Lemma 1's prefix-frequency reading). Words are matched
  /// `simd::kI16Lanes` at a time, so any count works and a block of that
  /// many costs one trie walk. Bit-identical to the scalar reference
  /// path. `scratch` may be nullptr (a local scratch is used).
  PS_REPORT_PATH
  void MatchBlock(const SymbolView* words, size_t count,
                  const SequenceDistance& distance, bool prefix_compare,
                  TableScratch* scratch, std::vector<double>* rows) const;

  /// MatchBlock over a whole list, one lane block at a time: matches
  /// word(0), ..., word(count - 1) and calls fn(k, row of word k) for
  /// each k in order, stopping at the first non-OK status fn returns.
  /// `rows` holds one block's rows (resized, capacity reused).
  template <typename WordAt, typename Fn>
  PS_REPORT_PATH Status MatchEach(size_t count, const WordAt& word,
                                  const SequenceDistance& distance,
                                  bool prefix_compare, TableScratch* scratch,
                                  std::vector<double>* rows,
                                  const Fn& fn) const {
    SymbolView block[simd::kI16Lanes];
    for (size_t first = 0; first < count; first += simd::kI16Lanes) {
      const size_t n = std::min(simd::kI16Lanes, count - first);
      for (size_t k = 0; k < n; ++k) block[k] = word(first + k);
      MatchBlock(block, n, distance, prefix_compare, scratch, rows);
      for (size_t k = 0; k < n; ++k) {
        Status status =
            fn(first + k, Span<const double>(rows->data() + k * size(),
                                              size()));
        if (!status.ok()) return status;
      }
    }
    return Status::Ok();
  }

  /// MatchBlock for one word: `out` is its row.
  PS_REPORT_PATH
  void MatchInto(SymbolView word, const SequenceDistance& distance,
                 bool prefix_compare, TableScratch* scratch,
                 std::vector<double>* out) const;

  /// Index of the candidate closest to `word`: MatchInto over the full
  /// word, then the first index of the smallest distance. Returns 0 on an
  /// empty table. `scratch` may be nullptr.
  PS_REPORT_PATH
  size_t Closest(SymbolView word, const SequenceDistance& distance,
                 TableScratch* scratch) const;

 private:
  /// One trie node, in depth-first preorder. nodes_[0] is the root
  /// (depth 0, the empty prefix); every other node's parent is the last
  /// node before it one level up, so its column follows from the column
  /// on the stack one level up.
  struct Node {
    Symbol symbol;       ///< the symbol the node appends to its parent
    uint16_t depth;      ///< prefix length, at most kMaxLanePair
    uint32_t terminals;  ///< candidates ending here (next in terminals_)
  };

  /// MatchBlock over one lane block of at most kI16Lanes words, rows
  /// written from `rows` (row stride size()).
  template <bool kDtw>
  void MatchLanes(const SymbolView* words, size_t lanes,
                  const SequenceDistance& distance, bool prefix_compare,
                  TableScratch* scratch, double* rows) const;

  std::vector<Sequence> candidates_;  ///< original order, original data
  std::vector<Node> nodes_;           ///< the trie in preorder
  std::vector<uint32_t> terminals_;   ///< candidate indices, node by node
  std::vector<uint32_t> long_;        ///< candidates past kMaxLanePair
  size_t depth_ = 0;                  ///< deepest node
};

/// Index of the first smallest distance of a row: the closest candidate,
/// ties to the first index. 0 for an empty row.
size_t FirstMinimum(Span<const double> row);

}  // namespace privshape::dist

#endif  // PRIVSHAPE_DISTANCE_CANDIDATE_TABLE_H_
