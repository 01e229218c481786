// Bit-exactness suite for the SoA candidate-table kernels: at every
// PS_SIMD level (the CI matrix covers AVX2/SSE2 and the
// PRIVSHAPE_SIMD=OFF scalar build), MatchInto/Closest must be
// bit-identical — including tie-breaking — to the always-built scalar
// reference path (core::MatchDistances / core::ClosestCandidate over
// dist::SequenceDistance), for the vectorized DTW/SED kernels and the
// per-candidate Euclidean/Hausdorff loop alike. The shapes below are
// chosen adversarially: odd lengths, length-1 candidates, empty words,
// all-equal distances, candidate counts around one and two lane blocks
// per sweep, mixed-length lists that exercise the grouping and padding
// arithmetic, the extreme byte symbols 0/1/254/255, and word + candidate
// lengths on both sides of the int16 range guard (n + m = 128 runs in
// int16 lanes, 129 and up takes the scalar kernel).

#include "distance/candidate_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/em_selection.h"
#include "distance/distance.h"

namespace privshape {
namespace {

using dist::CandidateTable;
using dist::Metric;
using dist::TableScratch;

std::vector<Metric> VectorizedMetrics() {
  return {Metric::kDtw, Metric::kSed};
}

// Reference: the scalar per-candidate path the table must reproduce.
std::vector<double> Reference(const Sequence& word,
                              const std::vector<Sequence>& candidates,
                              Metric metric, bool prefix) {
  auto distance = dist::MakeDistance(metric);
  return core::MatchDistances(word, candidates, prefix, *distance);
}

void ExpectBitIdentical(const Sequence& word,
                        const std::vector<Sequence>& candidates,
                        Metric metric, bool prefix) {
  auto distance = dist::MakeDistance(metric);
  CandidateTable table = CandidateTable::Build(candidates);
  TableScratch scratch;
  std::vector<double> got;
  table.MatchInto(word, *distance, prefix, &scratch, &got);
  std::vector<double> want = Reference(word, candidates, metric, prefix);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // EXPECT_EQ, not NEAR: the contract is bit-identical doubles.
    EXPECT_EQ(got[i], want[i])
        << dist::MetricName(metric) << " candidate " << i << " prefix "
        << prefix;
  }
  // The argmin (full-word) must match the exhaustive reference,
  // including first-index tie-breaking.
  EXPECT_EQ(table.Closest(word, *distance, &scratch),
            core::ClosestCandidate(word, candidates, *distance));
}

TEST(CandidateTableTest, MatchesReferenceOnMixedAdversarialLengths) {
  // Lengths 1, 2, 3, 5, 7 mixed; several groups, none lane-aligned.
  std::vector<Sequence> candidates = {
      {3},        {0, 1},          {1, 2, 3}, {2, 2, 2, 2, 2},
      {4, 0, 4},  {0, 1, 2, 3, 4}, {1},       {3, 3},
      {0, 2, 4, 1, 3, 0, 2},
  };
  Sequence word = {1, 2, 0, 4, 3};
  for (Metric metric : VectorizedMetrics()) {
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/true);
  }
}

// CandidateTable runs up to two lane blocks per DP sweep.
constexpr size_t kLanesPerSweep = 2 * simd::kI16Lanes;

TEST(CandidateTableTest, NonLaneMultipleCandidateCounts) {
  // Sweep group sizes 1..2*(lanes x blocks)+1 so one-block and two-block
  // sweeps, the padded tail lanes (and the lane < count guard) run at
  // every level.
  for (size_t count = 1; count <= 2 * kLanesPerSweep + 1; ++count) {
    std::vector<Sequence> candidates;
    for (size_t c = 0; c < count; ++c) {
      candidates.push_back(
          {static_cast<Symbol>(c % 5), static_cast<Symbol>((c + 2) % 5),
           static_cast<Symbol>((3 * c) % 5)});
    }
    Sequence word = {2, 4, 1};
    for (Metric metric : VectorizedMetrics()) {
      ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
    }
  }
}

TEST(CandidateTableTest, RangeGuardBoundaryWithAllMaxSymbols) {
  // (n + m) * 255 < INT16_MAX holds up to n + m = 128; from 129 on the
  // group takes the scalar kernel. An all-255 word against all-0
  // candidates puts cells near the int16 limit (n = 1, m = 127 gives
  // 127 * 255 = 32385); n + m = 300 would saturate int16 without the
  // guard. With n = 1 and n = 64 the word is no longer than the
  // candidates, so the prefix-on runs keep these sums; with
  // n = total - 1 the prefix cut shortens the word to m.
  for (size_t total : {size_t{128}, size_t{129}, size_t{300}}) {
    for (size_t n : {size_t{1}, size_t{64}, total - 1}) {
      size_t m = total - n;
      Sequence alternating(m, 0);
      for (size_t j = 0; j < m; j += 2) alternating[j] = 255;
      std::vector<Sequence> candidates = {Sequence(m, 255), Sequence(m, 0),
                                          alternating, Sequence(m, 254)};
      // Fill past one sweep so the guard covers whole groups.
      while (candidates.size() <= kLanesPerSweep) {
        candidates.push_back(Sequence(m, candidates.size() % 2 ? 0 : 255));
      }
      for (const Sequence& word : {Sequence(n, 255), Sequence(n, 0)}) {
        for (Metric metric : VectorizedMetrics()) {
          ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
          ExpectBitIdentical(word, candidates, metric, /*prefix=*/true);
        }
      }
    }
  }
}

TEST(CandidateTableTest, LengthOneCandidatesAndWords) {
  std::vector<Sequence> candidates = {{0}, {4}, {2}, {2}, {1}};
  ExpectBitIdentical({3}, candidates, Metric::kDtw, false);
  ExpectBitIdentical({3}, candidates, Metric::kSed, false);
  ExpectBitIdentical({3, 1, 4}, candidates, Metric::kDtw, true);
  ExpectBitIdentical({3, 1, 4}, candidates, Metric::kSed, true);
}

TEST(CandidateTableTest, EmptyWordTakesTheEmptyBranches) {
  // DTW's empty-word rule (sum of levels) and SED's degenerate DP
  // (distance = candidate length) both must match the reference.
  std::vector<Sequence> candidates = {{1, 2}, {0}, {3, 3, 3}};
  ExpectBitIdentical(Sequence{}, candidates, Metric::kDtw, false);
  ExpectBitIdentical(Sequence{}, candidates, Metric::kSed, false);
}

TEST(CandidateTableTest, AllEqualDistancesTieBreakToFirstIndex) {
  // Identical candidates: every distance ties, argmin must be index 0;
  // and a later exact duplicate of the winner must not steal the pick.
  std::vector<Sequence> same(7, Sequence{1, 3, 1});
  auto dtw = dist::MakeDistance(Metric::kDtw);
  CandidateTable table = CandidateTable::Build(same);
  TableScratch scratch;
  EXPECT_EQ(table.Closest(Sequence{2, 2}, *dtw, &scratch), 0u);

  std::vector<Sequence> dup = {{0, 4}, {1, 3, 1}, {2, 2}, {1, 3, 1}};
  CandidateTable dup_table = CandidateTable::Build(dup);
  EXPECT_EQ(dup_table.Closest(Sequence{2, 2}, *dtw, &scratch),
            core::ClosestCandidate(Sequence{2, 2}, dup, *dtw));
}

TEST(CandidateTableTest, TighteningDistancesAndFinalTieAgreeWithReference) {
  // Candidates sorted so the running best tightens monotonically, plus a
  // final exact tie with the incumbent best (d == best must not move the
  // argmin).
  std::vector<Sequence> candidates = {
      {4, 4, 4, 4}, {0, 4, 0, 4}, {1, 2, 3, 4}, {1, 2, 0, 4}, {1, 2, 0, 3},
      {1, 2, 0, 3},
  };
  Sequence word = {1, 2, 0, 3};
  for (Metric metric : VectorizedMetrics()) {
    ExpectBitIdentical(word, candidates, metric, false);
  }
}

TEST(CandidateTableTest, RandomizedSweepStaysBitIdentical) {
  // SAX-sized symbols, then the byte extremes 0/1/254/255: the largest
  // per-cell DTW costs, and SED's compare at both ends of the byte.
  const std::vector<Symbol> alphabets[] = {{0, 1, 2, 3, 4},
                                           {0, 1, 254, 255}};
  Rng rng(0xC0FFEE);
  for (const std::vector<Symbol>& alphabet : alphabets) {
    auto draw = [&] { return alphabet[rng.Index(alphabet.size())]; };
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Sequence> candidates(1 + rng.Index(2 * kLanesPerSweep + 1));
      for (auto& c : candidates) {
        size_t len = 1 + rng.Index(15);
        for (size_t j = 0; j < len; ++j) c.push_back(draw());
      }
      Sequence word;
      size_t word_len = rng.Index(31);
      for (size_t j = 0; j < word_len; ++j) word.push_back(draw());
      for (Metric metric : VectorizedMetrics()) {
        ExpectBitIdentical(word, candidates, metric, trial % 2 == 0);
      }
    }
  }
}

TEST(CandidateTableTest, FallbackMetricsMatchReferenceToo) {
  // Euclidean/Hausdorff have no vectorized kernel; the table must route
  // them through the identical per-candidate loop, and Closest through
  // the same argmin. Hausdorff puts an empty word or candidate at
  // +infinity, so empty words and candidates are drawn too.
  std::vector<Sequence> candidates = {{0, 1, 2}, {2, 1}, {4, 4, 4, 4}};
  Sequence word = {1, 1, 3};
  for (Metric metric : {Metric::kEuclidean, Metric::kHausdorff}) {
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/true);
  }
  Rng rng(0xFA11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Sequence> random(1 + rng.Index(8));
    for (auto& c : random) {
      for (size_t j = rng.Index(7); j > 0; --j) {
        c.push_back(static_cast<Symbol>(rng.Index(4)));
      }
    }
    Sequence random_word;
    for (size_t j = rng.Index(8); j > 0; --j) {
      random_word.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    for (Metric metric : {Metric::kEuclidean, Metric::kHausdorff}) {
      ExpectBitIdentical(random_word, random, metric, trial % 2 == 0);
    }
  }
}

TEST(CandidateTableTest, EmptyTableAndNullScratch) {
  CandidateTable empty;
  auto dtw = dist::MakeDistance(Metric::kDtw);
  std::vector<double> out = {1.0, 2.0};
  empty.MatchInto(Sequence{1, 2}, *dtw, false, nullptr, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(empty.Closest(Sequence{1, 2}, *dtw, nullptr), 0u);
}

TEST(CandidateTableTest, ScratchReuseAcrossShapesIsClean) {
  // A scratch grown by a long group must not leak state into a later,
  // shorter group or a different metric.
  TableScratch scratch;
  auto dtw = dist::MakeDistance(Metric::kDtw);
  auto sed = dist::MakeDistance(Metric::kSed);
  std::vector<Sequence> longer = {{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}};
  std::vector<Sequence> shorter = {{2, 2}, {0, 4}};
  CandidateTable long_table = CandidateTable::Build(longer);
  CandidateTable short_table = CandidateTable::Build(shorter);
  Sequence word = {1, 3, 0};
  std::vector<double> got;
  long_table.MatchInto(word, *dtw, false, &scratch, &got);
  short_table.MatchInto(word, *sed, false, &scratch, &got);
  std::vector<double> want = Reference(word, shorter, Metric::kSed, false);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

}  // namespace
}  // namespace privshape
