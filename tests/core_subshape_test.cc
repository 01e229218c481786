#include "core/subshape.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/rounds.h"
#include "ldp/estimator_utils.h"
#include "ldp/grr.h"

namespace privshape {
namespace {

using core::IndexToPair;
using core::PairToIndex;
using core::RankSubShapes;
using core::SubShapeDomainSize;
using core::SubShapeEstimates;

TEST(PairIndexTest, DomainSizes) {
  EXPECT_EQ(SubShapeDomainSize(4, false), 4u * 3u + 1u);
  EXPECT_EQ(SubShapeDomainSize(4, true), 16u + 1u);
  EXPECT_EQ(SubShapeDomainSize(3, false), 7u);
}

// Property: PairToIndex / IndexToPair are mutually inverse bijections over
// the full valid domain, for both pair-domain variants.
class PairBijectionTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PairBijectionTest, RoundTripsEveryPair) {
  auto [t, allow_repeats] = GetParam();
  std::set<size_t> seen;
  for (int a = 0; a < t; ++a) {
    for (int b = 0; b < t; ++b) {
      if (!allow_repeats && a == b) continue;
      size_t idx = PairToIndex(static_cast<Symbol>(a),
                               static_cast<Symbol>(b), t, allow_repeats);
      EXPECT_LT(idx, SubShapeDomainSize(t, allow_repeats) - 1);
      EXPECT_TRUE(seen.insert(idx).second) << "collision at " << a << "," << b;
      auto [ra, rb] = IndexToPair(idx, t, allow_repeats);
      EXPECT_EQ(ra, a);
      EXPECT_EQ(rb, b);
    }
  }
  // The mapping is onto [0, pairs).
  EXPECT_EQ(seen.size(), SubShapeDomainSize(t, allow_repeats) - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Domains, PairBijectionTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 8),
                       ::testing::Bool()));

/// P_b end to end over one shared engine, from the three pieces both
/// runners compose: every user answers through AnswerSubShapeValue
/// (padding and sampling, then GRR), the server tallies per level,
/// debiases each level through ldp::DebiasGrrCounts and ranks through
/// RankSubShapes. With ell_s = 1 there are no adjacent pairs, so, as in
/// RunProtocol, no user answers.
SubShapeEstimates RunSubShapeRound(const std::vector<Sequence>& words,
                                   int ell_s, int t, size_t top_m,
                                   double epsilon, bool allow_repeats,
                                   uint64_t seed) {
  size_t num_levels = static_cast<size_t>(ell_s - 1);
  size_t domain = SubShapeDomainSize(t, allow_repeats);
  auto grr = ldp::Grr::Create(domain, epsilon);
  if (!grr.ok()) {
    ADD_FAILURE() << grr.status();
    return {};
  }
  Rng rng(seed);
  std::vector<std::vector<size_t>> counts(num_levels,
                                          std::vector<size_t>(domain, 0));
  std::vector<size_t> reports(num_levels, 0);
  for (size_t user = 0; num_levels > 0 && user < words.size(); ++user) {
    auto [level, value] = core::AnswerSubShapeValue(words[user], ell_s, t,
                                                    allow_repeats, *grr, &rng);
    counts[level - 1][value]++;
    reports[level - 1]++;
  }
  std::vector<std::vector<double>> level_counts;
  for (size_t lvl = 0; lvl < num_levels; ++lvl) {
    level_counts.push_back(
        ldp::DebiasGrrCounts(counts[lvl], reports[lvl], epsilon));
  }
  return RankSubShapes(level_counts, t, top_m, allow_repeats);
}

TEST(SubShapeTest, RecoversPlantedTransitions) {
  // Every user holds "abca" (t=3): level 1 pair (a,b), level 2 (b,c),
  // level 3 (c,a). With eps = 4 the top-1 pair per level must match.
  std::vector<Sequence> sequences(3000, Sequence{0, 1, 2, 0});
  auto est = RunSubShapeRound(sequences, /*ell_s=*/4, /*t=*/3, /*top_m=*/1,
                              /*epsilon=*/4.0, /*allow_repeats=*/false,
                              /*seed=*/101);
  ASSERT_EQ(est.top_transitions.size(), 3u);
  EXPECT_EQ(est.top_transitions[0][0], (trie::Transition{0, 1}));
  EXPECT_EQ(est.top_transitions[1][0], (trie::Transition{1, 2}));
  EXPECT_EQ(est.top_transitions[2][0], (trie::Transition{2, 0}));
}

TEST(SubShapeTest, SingleLevelSequenceYieldsNoTransitions) {
  std::vector<Sequence> sequences(10, Sequence{0});
  auto est = RunSubShapeRound(sequences, 1, 3, 2, 1.0, false, 102);
  EXPECT_TRUE(est.top_transitions.empty());
  EXPECT_TRUE(est.counts.empty());
}

TEST(SubShapeTest, ShortSequencesReportPaddingSentinel) {
  // Users hold single-symbol words but ell_s = 4: all sampled pairs fall in
  // the padded region, so no real pair should dominate; the ranking must
  // still return top lists (noise only).
  std::vector<Sequence> sequences(2000, Sequence{0});
  auto est = RunSubShapeRound(sequences, 4, 3, 2, 4.0, false, 103);
  ASSERT_EQ(est.counts.size(), 3u);
  // The sentinel bucket (last index) should hold nearly all the mass at
  // each level; real pairs stay near zero.
  for (const auto& level_counts : est.counts) {
    size_t sentinel = level_counts.size() - 1;
    double total_real = 0.0;
    for (size_t i = 0; i < sentinel; ++i) total_real += level_counts[i];
    EXPECT_GT(level_counts[sentinel], total_real);
  }
  for (const auto& level : est.top_transitions) {
    EXPECT_EQ(level.size(), 2u);
  }
}

TEST(SubShapeTest, TopMRespectsRequestedCount) {
  std::vector<Sequence> sequences(1000, Sequence{0, 1, 0, 1});
  auto est = RunSubShapeRound(sequences, 4, 4, 5, 2.0, false, 104);
  ASSERT_EQ(est.top_transitions.size(), 3u);
  for (const auto& level : est.top_transitions) {
    EXPECT_EQ(level.size(), 5u);
  }
}

TEST(SubShapeTest, AllowRepeatsHandlesUncompressedWords) {
  // Raw SAX words with runs: (a,a) must be representable.
  std::vector<Sequence> sequences(2000, Sequence{0, 0, 1, 1});
  auto est = RunSubShapeRound(sequences, 4, 2, 1, 4.0, true, 105);
  ASSERT_EQ(est.top_transitions.size(), 3u);
  EXPECT_EQ(est.top_transitions[0][0], (trie::Transition{0, 0}));
  EXPECT_EQ(est.top_transitions[1][0], (trie::Transition{0, 1}));
  EXPECT_EQ(est.top_transitions[2][0], (trie::Transition{1, 1}));
}

}  // namespace
}  // namespace privshape
