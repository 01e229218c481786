/// \file
/// SoA candidate table for the per-report answer hot path. A collection
/// round broadcasts ONE candidate list that millions of users match
/// against, so the table is built once per round: candidates are grouped
/// by equal length and each group's symbols are transposed into a
/// contiguous int16 plane padded to whole lane blocks (`plane[j * padded
/// + c]` = symbol j of the group's c-th candidate). One user's word then
/// runs the two-row DTW/SED dynamic program against `simd::kI16Lanes`
/// candidates per lane block, two blocks per sweep — the DP's sequential
/// j-dependency stays inside each lane, and lanes are independent
/// candidates, so every lane executes the scalar kernel's recurrence.
///
/// Contract: MatchInto/Closest are bit-identical to the scalar reference
/// path (`MatchDistances` over `dist::SequenceDistance`) at every SIMD
/// level, including first-index tie-breaking in Closest. Symbols are
/// bytes, so every DTW cell is an integer of at most (n + m - 1) * 255 and
/// every SED cell at most n + m; while (n + m) * 255 < INT16_MAX the int16
/// lanes hold each cell exactly (INT16_MAX standing for +infinity), and
/// converting the result to double gives the reference's bytes. Longer
/// pairs (n + m >= 129, which no paper configuration reaches) and DTW's
/// empty-word case take the per-candidate scalar kernel, as do metrics
/// without a vectorized kernel (Euclidean/Hausdorff ablations). The
/// scalar kernels in distance.cc are the reference;
/// tests/distance_simd_test.cc and fuzz/fuzz_candidate_table.cc enforce
/// the match.

#ifndef PRIVSHAPE_DISTANCE_CANDIDATE_TABLE_H_
#define PRIVSHAPE_DISTANCE_CANDIDATE_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/analysis_annotations.h"
#include "distance/distance.h"
#include "series/sequence.h"

namespace privshape::dist {

/// Caller-owned scratch for the table kernels: the two int16 DP rows of
/// one sweep, a distance buffer for Closest, and a scalar-kernel scratch
/// for the per-candidate fallback. One instance per worker thread; grown
/// monotonically, so steady-state matching allocates nothing.
struct TableScratch {
  std::vector<int16_t> prev;   ///< (m + 1) * 2 * kI16Lanes DP row
  std::vector<int16_t> curr;   ///< (m + 1) * 2 * kI16Lanes DP row
  std::vector<double> dists;   ///< per-candidate distances for Closest
  DtwScratch dtw;              ///< scalar fallback kernel rows
};

/// Immutable SoA view of one round's candidate list. Move-only by being
/// cheap to move; copying is allowed (used when a round context is
/// rebuilt) but never happens per report.
class CandidateTable {
 public:
  CandidateTable() = default;

  /// Groups the candidates by length into padded symbol planes. The
  /// original list (and its indexing) is retained: every result of
  /// MatchInto/Closest is reported in original candidate order.
  static CandidateTable Build(std::vector<Sequence> candidates);

  const std::vector<Sequence>& candidates() const { return candidates_; }
  size_t size() const { return candidates_.size(); }
  bool empty() const { return candidates_.empty(); }

  /// Fills (*out)[i] with distance(word, candidate i) for every i, in
  /// original candidate order; `out` is resized. With `prefix_compare`,
  /// a word longer than a candidate is compared against its equally long
  /// prefix (Lemma 1's prefix-frequency reading) — candidates in one
  /// length group share that prefix, which is what makes the grouped
  /// layout natural. Bit-identical to the scalar reference path.
  /// `scratch` may be nullptr (a local scratch is used).
  PS_REPORT_PATH
  void MatchInto(SymbolView word, const SequenceDistance& distance,
                 bool prefix_compare, TableScratch* scratch,
                 std::vector<double>* out) const;

  /// Index of the candidate closest to `word` (full-word comparison,
  /// ties to the first original index) — the same argmin, including
  /// tie-breaking, as the early-abandoning scalar ClosestCandidate.
  /// Returns 0 on an empty table. `scratch` may be nullptr.
  PS_REPORT_PATH
  size_t Closest(SymbolView word, const SequenceDistance& distance,
                 TableScratch* scratch) const;

 private:
  /// One equal-length stripe of the table. `padded` is `count` rounded
  /// up to whole lane blocks; padding lanes hold symbol 0 and their DP
  /// results are computed and discarded (they obey the same range bound,
  /// and there is no cross-lane arithmetic at all).
  struct Group {
    size_t length;        ///< candidate length m (the DP's column count)
    size_t count;         ///< real candidates in this group
    size_t padded;        ///< count rounded up to simd::kI16Lanes
    size_t plane_offset;  ///< start of this group in symbols_
    size_t index_offset;  ///< start of this group in original_index_
  };

  std::vector<Sequence> candidates_;     ///< original order, original data
  std::vector<Group> groups_;            ///< ascending by length
  std::vector<int16_t> symbols_;         ///< concatenated padded planes
  std::vector<uint32_t> original_index_; ///< group slot -> original index
};

}  // namespace privshape::dist

#endif  // PRIVSHAPE_DISTANCE_CANDIDATE_TABLE_H_
