#include "core/em_selection.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"

namespace privshape {
namespace {

using core::EmSelectionCounts;

std::vector<size_t> AllUsers(size_t n) {
  std::vector<size_t> users(n);
  std::iota(users.begin(), users.end(), 0);
  return users;
}

TEST(EmSelectionTest, CountsSumToPopulationSize) {
  std::vector<Sequence> candidates = {{0, 1}, {1, 2}, {2, 0}};
  std::vector<Sequence> sequences(50, Sequence{0, 1, 2});
  Rng rng(111);
  auto counts = EmSelectionCounts(candidates, sequences, AllUsers(50),
                                  dist::Metric::kSed, 2.0, &rng);
  ASSERT_TRUE(counts.ok());
  double total = 0;
  for (double c : *counts) total += c;
  EXPECT_DOUBLE_EQ(total, 50.0);
}

TEST(EmSelectionTest, TrueCandidateDominatesAtHighEps) {
  std::vector<Sequence> candidates = {{0, 1}, {2, 3}, {3, 0}};
  std::vector<Sequence> sequences(400, Sequence{0, 1});
  Rng rng(112);
  auto counts = EmSelectionCounts(candidates, sequences, AllUsers(400),
                                  dist::Metric::kSed, 8.0, &rng);
  ASSERT_TRUE(counts.ok());
  EXPECT_GT((*counts)[0], (*counts)[1]);
  EXPECT_GT((*counts)[0], (*counts)[2]);
  EXPECT_GT((*counts)[0], 300.0);
}

TEST(EmSelectionTest, LowEpsApproachesUniform) {
  std::vector<Sequence> candidates = {{0, 1}, {2, 3}};
  std::vector<Sequence> sequences(10000, Sequence{0, 1});
  Rng rng(113);
  auto counts = EmSelectionCounts(candidates, sequences, AllUsers(10000),
                                  dist::Metric::kSed, 0.01, &rng);
  ASSERT_TRUE(counts.ok());
  // At eps ~ 0 both candidates are nearly equally likely.
  EXPECT_NEAR((*counts)[0] / 10000.0, 0.5, 0.03);
}

TEST(EmSelectionTest, PrefixCompareUsesUserPrefix) {
  // User sequence "abcd"; candidate "ab" matches its 2-prefix exactly, so
  // with prefix comparison candidate 0 dominates over "cd".
  std::vector<Sequence> candidates = {{0, 1}, {2, 3}};
  std::vector<Sequence> sequences(300, Sequence{0, 1, 2, 3});
  Rng rng(114);
  auto counts = EmSelectionCounts(candidates, sequences, AllUsers(300),
                                  dist::Metric::kSed, 6.0, &rng);
  ASSERT_TRUE(counts.ok());
  EXPECT_GT((*counts)[0], (*counts)[1]);
}

TEST(EmSelectionTest, EmptyPopulationGivesZeroCounts) {
  std::vector<Sequence> candidates = {{0}, {1}};
  std::vector<Sequence> sequences(5, Sequence{0});
  Rng rng(115);
  auto counts = EmSelectionCounts(candidates, sequences, {},
                                  dist::Metric::kDtw, 1.0, &rng);
  ASSERT_TRUE(counts.ok());
  EXPECT_DOUBLE_EQ((*counts)[0], 0.0);
  EXPECT_DOUBLE_EQ((*counts)[1], 0.0);
}

TEST(EmSelectionTest, RejectsEmptyCandidates) {
  std::vector<Sequence> sequences(5, Sequence{0});
  Rng rng(116);
  EXPECT_FALSE(EmSelectionCounts({}, sequences, AllUsers(5),
                                 dist::Metric::kSed, 1.0, &rng)
                   .ok());
}

TEST(EmSelectionTest, RejectsBadUserIndex) {
  std::vector<Sequence> candidates = {{0}};
  std::vector<Sequence> sequences(5, Sequence{0});
  Rng rng(117);
  EXPECT_FALSE(EmSelectionCounts(candidates, sequences, {77},
                                 dist::Metric::kSed, 1.0, &rng)
                   .ok());
}

std::vector<dist::Metric> AllMetrics() {
  return {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
          dist::Metric::kHausdorff};
}

TEST(ClosestCandidateTest, TiesBreakToFirstIndex) {
  // Duplicate candidates (exact ties, distance 0 among them) and an
  // exact match later in the list: the FIRST zero-distance candidate
  // must win, in the scalar reference and in the table.
  std::vector<Sequence> candidates = {{2, 2}, {0, 1}, {0, 1}, {0, 1}};
  dist::CandidateTable table = dist::CandidateTable::Build(candidates);
  Sequence seq = {0, 1};
  for (dist::Metric m : AllMetrics()) {
    auto distance = dist::MakeDistance(m);
    EXPECT_EQ(core::ClosestCandidate(seq, candidates, *distance), 1u)
        << dist::MetricName(m);
    EXPECT_EQ(table.Closest(seq, *distance, nullptr), 1u)
        << dist::MetricName(m);
  }
  // All candidates tie (all identical): index 0 wins.
  std::vector<Sequence> all_same(5, Sequence{1, 2, 1});
  dist::CandidateTable same_table = dist::CandidateTable::Build(all_same);
  for (dist::Metric m : AllMetrics()) {
    auto distance = dist::MakeDistance(m);
    EXPECT_EQ(core::ClosestCandidate({2, 0}, all_same, *distance), 0u)
        << dist::MetricName(m);
    EXPECT_EQ(same_table.Closest(Sequence{2, 0}, *distance, nullptr), 0u)
        << dist::MetricName(m);
  }
}

TEST(EmSelectionTest, WorksWithEveryMetric) {
  std::vector<Sequence> candidates = {{0, 1}, {1, 0}};
  std::vector<Sequence> sequences(20, Sequence{0, 1});
  for (dist::Metric m :
       {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
        dist::Metric::kHausdorff}) {
    Rng rng(118);
    auto counts =
        EmSelectionCounts(candidates, sequences, AllUsers(20), m, 2.0, &rng);
    ASSERT_TRUE(counts.ok()) << dist::MetricName(m);
  }
}

}  // namespace
}  // namespace privshape
