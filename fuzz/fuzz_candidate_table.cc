/// \file
/// Differential fuzz target: the SoA candidate-table kernels vs the
/// scalar reference path. The input bytes steer a candidate list (with
/// arbitrary lengths, including empty and duplicates — the padding and
/// grouping arithmetic is exactly what we want stressed), a user word,
/// the metric, and the prefix mode; the harness then requires
/// bit-identical distances from CandidateTable::MatchInto vs
/// core::MatchDistances and an identical argmin (with tie-breaking)
/// from Closest vs core::ClosestCandidate. Symbols span the whole byte
/// (the largest DTW cell costs), up to 80 candidates fill groups past
/// two AVX2 sweeps, and word and candidate lengths of up to 255 cross
/// n + m = 129, where groups leave the int16 lanes for the scalar kernel,
/// and reach DTW distances that int16 cannot hold. Any divergence or
/// crash in the lane/padding math aborts.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/em_selection.h"
#include "distance/candidate_table.h"
#include "distance/distance.h"

namespace dist = privshape::dist;
namespace core = privshape::core;
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
  dist::Metric metric =
      (selector & 1) ? dist::Metric::kSed : dist::Metric::kDtw;
  bool prefix = (selector & 2) != 0;

  size_t word_len = data[pos++];  // 0..255, empty words included
  Sequence word;
  for (size_t i = 0; i < word_len && pos < size; ++i) {
    word.push_back(data[pos++]);
  }

  std::vector<Sequence> candidates;
  while (pos < size && candidates.size() < 80) {
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

  std::vector<double> got;
  table.MatchInto(word, *distance, prefix, &scratch, &got);
  std::vector<double> want =
      core::MatchDistances(word, candidates, prefix, *distance);
  if (got.size() != want.size()) std::abort();
  for (size_t i = 0; i < want.size(); ++i) {
    if (!SameBits(got[i], want[i])) std::abort();
  }

  size_t closest = table.Closest(word, *distance, &scratch);
  if (closest != core::ClosestCandidate(word, candidates, *distance)) {
    std::abort();
  }
  return 0;
}
