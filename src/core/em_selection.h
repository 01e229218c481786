#ifndef PRIVSHAPE_CORE_EM_SELECTION_H_
#define PRIVSHAPE_CORE_EM_SELECTION_H_

#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/status.h"
#include "distance/candidate_table.h"
#include "distance/distance.h"
#include "series/sequence.h"

namespace privshape::core {

/// Distances from one user's word to every candidate. With
/// `prefix_compare` and a word longer than a candidate, the candidate is
/// compared against the equally long prefix of the word (Lemma 1's
/// prefix-frequency reading for intermediate trie levels).
///
/// The plain exhaustive scalar reference of `dist::CandidateTable`:
/// tests/distance_simd_test.cc and fuzz/fuzz_candidate_table.cc require
/// MatchBlock to reproduce it bit for bit. No protocol path calls it.
std::vector<double> MatchDistances(const Sequence& seq,
                                   const std::vector<Sequence>& candidates,
                                   bool prefix_compare,
                                   const dist::SequenceDistance& distance);

/// Index of the candidate closest to `seq` (exact; ties break to the
/// first index): the scalar reference of `CandidateTable::Closest`.
size_t ClosestCandidate(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        const dist::SequenceDistance& distance);

/// Reusable buffers of the match -> EM-select chain
/// (CandidateTable::MatchBlock, then AnswerSelectionValue per user): one
/// instance per worker amortizes every per-user allocation.
struct SelectionScratch {
  dist::TableScratch table;
  /// Distance rows: one word's (MatchInto), or one block's (MatchEach).
  std::vector<double> distances;
  /// The draw's buffers (ldp::ExponentialMechanism::SelectFromDistances):
  /// the weight, then the probability, of each integral distance value
  /// (one slot per value below kDistanceSlots = 512), and the running sums
  /// of the candidates' probabilities. Off that per-value path, the
  /// candidates' scores and probabilities.
  std::vector<double> distance_weights;
  std::vector<double> running_sums;
};

/// Sequence matching on the user side (§III-C-2, Eq. (2)) for Algorithm
/// 1's per-level selection: every user in `population` answers P_c's user
/// step (AnswerSelectionValue) against one table of `candidates` — the
/// equally long prefix of a longer word (Lemma 1), scores S = normalized
/// 1/dist, one EM-released index at budget `epsilon` — drawing from the
/// caller's shared `rng` in population order. Users are matched a lane
/// block at a time (CandidateTable::MatchEach). Returns the selection
/// count per candidate.
PS_REPORT_PATH
Result<std::vector<double>> EmSelectionCounts(
    const std::vector<Sequence>& candidates,
    const std::vector<Sequence>& sequences,
    const std::vector<size_t>& population, dist::Metric metric,
    double epsilon, Rng* rng);

}  // namespace privshape::core

#endif  // PRIVSHAPE_CORE_EM_SELECTION_H_
