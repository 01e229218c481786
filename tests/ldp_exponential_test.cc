#include "ldp/exponential.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace privshape {
namespace {

using ldp::ExponentialMechanism;
using ldp::ScoresFromDistancesInto;

TEST(ExponentialTest, RejectsInvalidParameters) {
  EXPECT_FALSE(ExponentialMechanism::Create(0.0).ok());
  EXPECT_FALSE(ExponentialMechanism::Create(1.0, 0.0).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(ExponentialMechanism::Create(eps).ok()) << eps;
  }
  EXPECT_TRUE(ExponentialMechanism::Create(1.0).ok());
}

TEST(ExponentialTest, ProbabilitiesMatchEq2) {
  // Eq. (2): Pr[j] = exp(eps * S_j / 2) / sum_z exp(eps * S_z / 2).
  auto em = ExponentialMechanism::Create(2.0);
  ASSERT_TRUE(em.ok());
  std::vector<double> scores = {1.0, 0.5, 0.0};
  std::vector<double> probs;
  ASSERT_TRUE(em->SelectionProbabilitiesInto(scores, &probs).ok());
  double z = std::exp(1.0) + std::exp(0.5) + std::exp(0.0);
  EXPECT_NEAR(probs[0], std::exp(1.0) / z, 1e-12);
  EXPECT_NEAR(probs[1], std::exp(0.5) / z, 1e-12);
  EXPECT_NEAR(probs[2], std::exp(0.0) / z, 1e-12);
}

TEST(ExponentialTest, ProbabilitiesSumToOne) {
  auto em = ExponentialMechanism::Create(4.0);
  ASSERT_TRUE(em.ok());
  std::vector<double> scores = {0.3, 0.9, 0.1, 0.7, 0.5};
  std::vector<double> probs;
  ASSERT_TRUE(em->SelectionProbabilitiesInto(scores, &probs).ok());
  double sum = 0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ExponentialTest, EmptyCandidateSetFails) {
  auto em = ExponentialMechanism::Create(1.0);
  ASSERT_TRUE(em.ok());
  std::vector<double> probs;
  EXPECT_FALSE(em->SelectionProbabilitiesInto({}, &probs).ok());
  Rng rng(61);
  EXPECT_FALSE(em->Select({}, &rng, &probs).ok());
}

// Direct eps-LDP property: for any two users (= any two score vectors in
// [0,1]^r with sensitivity 1) and any output j, the probability ratio is
// bounded by e^eps. This is the privacy guarantee of Theorem 1's candidate
// selection, checked exactly on the implementation's own probabilities.
class EmPrivacyTest : public ::testing::TestWithParam<double> {};

TEST_P(EmPrivacyTest, RatioBoundedByExpEps) {
  double eps = GetParam();
  auto em = ExponentialMechanism::Create(eps);
  ASSERT_TRUE(em.ok());
  Rng rng(62);
  for (int trial = 0; trial < 300; ++trial) {
    size_t r = 2 + rng.Index(6);
    std::vector<double> s1(r), s2(r);
    for (size_t i = 0; i < r; ++i) {
      s1[i] = rng.Uniform();
      s2[i] = rng.Uniform();
    }
    std::vector<double> p1, p2;
    ASSERT_TRUE(em->SelectionProbabilitiesInto(s1, &p1).ok());
    ASSERT_TRUE(em->SelectionProbabilitiesInto(s2, &p2).ok());
    for (size_t j = 0; j < r; ++j) {
      EXPECT_LE(p1[j] / p2[j], std::exp(eps) * (1.0 + 1e-9))
          << "eps=" << eps << " trial=" << trial << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, EmPrivacyTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 4.0, 8.0));

TEST(ExponentialTest, HigherScoreSelectedMoreOften) {
  auto em = ExponentialMechanism::Create(4.0);
  ASSERT_TRUE(em.ok());
  Rng rng(63);
  std::vector<double> scores = {1.0, 0.0};
  std::vector<double> probs;
  int first = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    auto pick = em->Select(scores, &rng, &probs);
    ASSERT_TRUE(pick.ok());
    if (*pick == 0) ++first;
  }
  // Pr[0] = e^2 / (e^2 + 1) ~ 0.881.
  EXPECT_NEAR(static_cast<double>(first) / n,
              std::exp(2.0) / (std::exp(2.0) + 1.0), 0.02);
}

TEST(ExponentialTest, NumericallyStableForExtremeBudgets) {
  auto em = ExponentialMechanism::Create(1000.0);
  ASSERT_TRUE(em.ok());
  std::vector<double> probs;
  ASSERT_TRUE(em->SelectionProbabilitiesInto({1.0, 0.0, 0.2}, &probs).ok());
  EXPECT_NEAR(probs[0], 1.0, 1e-9);
  EXPECT_FALSE(std::isnan(probs[1]));
}

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// SelectFromDistances' per-value path: integers in [0, kDistanceSlots)
// that span no more values than there are candidates.
bool OnFastPath(const std::vector<double>& distances) {
  if (distances.empty()) return false;
  for (double d : distances) {
    if (!(d >= 0.0 && d < ExponentialMechanism::kDistanceSlots) ||
        d != std::floor(d)) {
      return false;
    }
  }
  auto [lo, hi] = std::minmax_element(distances.begin(), distances.end());
  return *hi - *lo < static_cast<double>(distances.size());
}

// Draws from `distances` through SelectFromDistances and through the
// two-step reference (ScoresFromDistancesInto + Select), from engines
// seeded alike. Both must release the same index (or the same error) and
// leave their engines at the same position. On the per-value path the
// running sums must be Rng::Discrete's partial sums over the reference's
// probabilities, bit for bit; off it, the reference's probabilities.
void ExpectSameDraw(const ExponentialMechanism& em,
                    const std::vector<double>& distances, uint64_t seed) {
  Rng fast_rng(seed), ref_rng(seed);
  std::vector<double> weights, sums, scores, probs;
  auto got = em.SelectFromDistances(distances, &fast_rng, &weights, &sums);
  ScoresFromDistancesInto(distances, &scores);
  auto want = em.Select(scores, &ref_rng, &probs);
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status(), want.status());
    return;
  }
  EXPECT_EQ(*got, *want) << "seed " << seed;
  EXPECT_EQ(fast_rng.engine()(), ref_rng.engine()()) << "seed " << seed;
  ASSERT_EQ(sums.size(), probs.size());
  double acc = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i] > 0 ? probs[i] : 0.0;
    double want_sum = OnFastPath(distances) ? acc : probs[i];
    ASSERT_EQ(Bits(sums[i]), Bits(want_sum)) << "candidate " << i;
  }
}

void ExpectSameDraws(double epsilon, const std::vector<double>& distances) {
  auto em = ExponentialMechanism::Create(epsilon);
  ASSERT_TRUE(em.ok());
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    ExpectSameDraw(*em, distances, seed);
  }
}

TEST(SelectFromDistancesTest, IntegralDistancesMatchTwoStep) {
  ExpectSameDraws(1.0, {3, 0, 7, 3, 12, 7, 0, 5, 4, 6, 1, 2, 9});
  ExpectSameDraws(4.0, {-0.0, 0.0, 2.0, 1.0});
  ExpectSameDraws(2.0, {510, 511, 509, 511});
  // Spread wider than the candidate count: the two-step form.
  ExpectSameDraws(1.0, {3, 0, 7, 3, 12, 7, 0, 5});
  ExpectSameDraws(1.0, {0, 100, 200});
  // Symbols-sized rounds: up to 108 candidates, DTW distances up to 145,
  // spanning up to as many values as there are candidates (the per-value
  // path) or up to 146 (mostly the two-step form).
  Rng rng(65);
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = 1 + rng.Index(108);
    size_t span = 1 + rng.Index(trial % 2 == 0 ? n : 146);
    size_t base = rng.Index(147 - span);
    std::vector<double> d(n);
    for (double& x : d) x = static_cast<double>(base + rng.Index(span));
    ExpectSameDraws(0.5 + rng.Uniform(0.0, 8.0), d);
  }
}

TEST(SelectFromDistancesTest, NonIntegralDistancesMatchTwoStep) {
  ExpectSameDraws(1.0, {2.5, 0.25, 7.0});
  ExpectSameDraws(2.0, {1.0, 2.0, 3.0 + 1e-9});
  Rng rng(66);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> d(1 + rng.Index(40));
    for (double& x : d) x = rng.Uniform(0.0, 20.0);
    ExpectSameDraws(2.0, d);
  }
}

TEST(SelectFromDistancesTest, AllEqualDistancesMatchTwoStep) {
  ExpectSameDraws(1.0, {4, 4, 4, 4});
  ExpectSameDraws(1.0, {0, 0, 0});
  ExpectSameDraws(1.0, {6.5, 6.5});
}

TEST(SelectFromDistancesTest, OneCandidateMatchesTwoStep) {
  ExpectSameDraws(1.0, {9});
  ExpectSameDraws(1.0, {9.5});
  ExpectSameDraws(1.0, {700});
}

TEST(SelectFromDistancesTest, DistancesPastTheSlotsMatchTwoStep) {
  ExpectSameDraws(1.0, {511, 512, 3});
  ExpectSameDraws(1.0, {600, 1000, 600, 2000});
  ExpectSameDraws(1.0, {-1, 2, 5});
  ExpectSameDraws(1.0, {std::numeric_limits<double>::infinity(), 1, 2});
}

TEST(SelectFromDistancesTest, UnderflowingWeightsMatchTwoStep) {
  // eps = 1e6 sends every weight but the closest distances' to 0.
  ExpectSameDraws(1e6, {3, 0, 7, 3, 12, 7, 0, 5, 4, 6, 1, 2, 9, 11, 10});
  ExpectSameDraws(1e6, {9, 9, 1, 100, 1});
  ExpectSameDraws(1e6, {9.5, 9.5, 1.5, 100.0, 1.5});
  // eps = 2.1e4 over a span of 29: the weights run 1, ~1e-157, a
  // subnormal ~1e-314, then 0.
  std::vector<double> d;
  for (int rep = 0; rep < 3; ++rep) {
    for (int v = 29; v >= 0; --v) d.push_back(v);
  }
  ExpectSameDraws(2.1e4, d);
}

TEST(SelectFromDistancesTest, EmptyCandidateSetFailsLikeSelect) {
  auto em = ExponentialMechanism::Create(1.0);
  ASSERT_TRUE(em.ok());
  ExpectSameDraw(*em, {}, 67);
  Rng rng(67);
  std::vector<double> weights, sums;
  EXPECT_FALSE(em->SelectFromDistances({}, &rng, &weights, &sums).ok());
}

TEST(ScoresFromDistancesTest, NormalizedToUnitInterval) {
  std::vector<double> scores;
  ScoresFromDistancesInto(std::vector<double>{2.0, 5.0, 8.0}, &scores);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);   // closest
  EXPECT_DOUBLE_EQ(scores[1], 0.5);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);   // farthest
}

TEST(ScoresFromDistancesTest, AllEqualDistancesScoreOne) {
  std::vector<double> scores;
  ScoresFromDistancesInto(std::vector<double>{3.0, 3.0, 3.0}, &scores);
  for (double s : scores) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(ScoresFromDistancesTest, EmptyInput) {
  std::vector<double> scores = {0.5};
  ScoresFromDistancesInto({}, &scores);
  EXPECT_TRUE(scores.empty());
}

TEST(ScoresFromDistancesTest, SmallerDistanceLargerScore) {
  Rng rng(64);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> d(5);
    for (double& x : d) x = rng.Uniform(0.0, 10.0);
    std::vector<double> s;
    ScoresFromDistancesInto(d, &s);
    for (size_t i = 0; i < d.size(); ++i) {
      for (size_t j = 0; j < d.size(); ++j) {
        if (d[i] < d[j]) {
          EXPECT_GE(s[i], s[j]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace privshape
