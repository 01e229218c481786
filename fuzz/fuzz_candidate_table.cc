/// \file
/// Differential fuzz target: the candidate-trie kernel vs the scalar
/// reference path, and P_c's EM draw vs its two-step reference. The input
/// bytes steer a block of words (1 to 2 * kI16Lanes + 1 of them, so one
/// lane block, a partial one and several run), a candidate list (with
/// arbitrary lengths, including empty candidates, duplicates and shared
/// prefixes — the trie building and the per-pair guard are exactly what
/// we want stressed), the metric (selector bits 0-1: DTW, SED, Euclidean,
/// Hausdorff), the prefix mode (bit 2) and the EM budget (bits 3-5); the
/// harness then requires every row of CandidateTable::MatchBlock to be
/// bit-identical to core::MatchDistances for its word, its first minimum
/// to be core::ClosestCandidate's argmin (with tie-breaking), and the
/// one-word MatchInto/Closest to agree, for the lane metrics and the
/// per-pair Euclidean/Hausdorff loop alike. Symbols span the whole byte
/// (the largest DTW cell costs), up to 96 candidates (a whole 18 x 5 P_c
/// frontier), and word and
/// candidate lengths of up to 255 cross n + m = 129, where a pair leaves
/// the int16 lanes for the scalar kernel, and reach DTW distances that
/// int16 cannot hold. The first word's distances are then drawn from
/// through ExponentialMechanism::SelectFromDistances and through
/// ScoresFromDistancesInto + Select, by twin engines seeded from the
/// input: integral DTW/SED distances below 512 take the per-value path
/// (unless they spread wider than the candidate count),
/// Euclidean/Hausdorff and longer DTW distances the fallback, and the two
/// must release the same index and leave the engines at the same
/// position. Any divergence or crash in the trie, lane or draw math
/// aborts.
///
/// Input: selector byte, block byte (1 + byte % (2 * kI16Lanes + 1)
/// words), the words as length byte + symbols, then length-prefixed
/// candidates.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/em_selection.h"
#include "distance/candidate_table.h"
#include "distance/distance.h"
#include "ldp/exponential.h"

namespace dist = privshape::dist;
namespace core = privshape::core;
namespace ldp = privshape::ldp;
using privshape::Rng;
using privshape::Sequence;
using privshape::Symbol;

namespace {

/// Bitwise double equality (the contract is bit-identical, not "close").
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  size_t pos = 0;
  uint8_t selector = data[pos++];
  constexpr dist::Metric kMetrics[] = {dist::Metric::kDtw, dist::Metric::kSed,
                                       dist::Metric::kEuclidean,
                                       dist::Metric::kHausdorff};
  dist::Metric metric = kMetrics[selector & 3];
  bool prefix = (selector & 4) != 0;

  const size_t count =
      1 + data[pos++] % (2 * privshape::simd::kI16Lanes + 1);
  std::vector<Sequence> words(count);
  for (Sequence& word : words) {
    size_t word_len = pos < size ? data[pos++] : 0;  // 0..255, empty too
    for (size_t i = 0; i < word_len && pos < size; ++i) {
      word.push_back(data[pos++]);
    }
  }

  std::vector<Sequence> candidates;
  while (pos < size && candidates.size() < 96) {
    size_t len = data[pos++];  // 0..255, empty candidates included
    Sequence cand;
    for (size_t i = 0; i < len && pos < size; ++i) {
      cand.push_back(data[pos++]);
    }
    candidates.push_back(std::move(cand));
  }
  if (candidates.empty()) return 0;

  auto distance = dist::MakeDistance(metric);
  dist::CandidateTable table = dist::CandidateTable::Build(candidates);
  dist::TableScratch scratch;

  std::vector<dist::SymbolView> views(words.begin(), words.end());
  std::vector<double> rows;
  table.MatchBlock(views.data(), count, *distance, prefix, &scratch, &rows);
  if (rows.size() != count * candidates.size()) std::abort();
  for (size_t w = 0; w < count; ++w) {
    std::vector<double> want =
        core::MatchDistances(words[w], candidates, prefix, *distance);
    privshape::Span<const double> row(rows.data() + w * candidates.size(),
                                      candidates.size());
    for (size_t i = 0; i < want.size(); ++i) {
      if (!SameBits(row[i], want[i])) std::abort();
    }
    if (!prefix && dist::FirstMinimum(row) !=
                       core::ClosestCandidate(words[w], candidates,
                                              *distance)) {
      std::abort();
    }
  }

  // The one-word case of the same kernel: MatchInto and Closest.
  const Sequence& word = words[0];
  std::vector<double> got;
  table.MatchInto(word, *distance, prefix, &scratch, &got);
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(got[i], rows[i])) std::abort();
  }
  size_t closest = table.Closest(word, *distance, &scratch);
  if (closest != core::ClosestCandidate(word, candidates, *distance)) {
    std::abort();
  }

  constexpr double kEpsilons[] = {0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 1e3, 1e6};
  auto em = ldp::ExponentialMechanism::Create(kEpsilons[(selector >> 3) & 7]);
  if (!em.ok()) std::abort();
  uint64_t seed = 14695981039346656037ULL;  // FNV-1a over the input
  for (size_t i = 0; i < size; ++i) seed = (seed ^ data[i]) * 1099511628211ULL;
  Rng fast_rng(seed), ref_rng(seed);
  std::vector<double> weights, sums, scores, probs;
  auto pick = em->SelectFromDistances(got, &fast_rng, &weights, &sums);
  ldp::ScoresFromDistancesInto(got, &scores);
  auto ref_pick = em->Select(scores, &ref_rng, &probs);
  if (!pick.ok() || !ref_pick.ok() || *pick != *ref_pick) std::abort();
  if (fast_rng.engine()() != ref_rng.engine()()) std::abort();
  return 0;
}
