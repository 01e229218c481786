#include "ldp/exponential.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

TEST(ScoresFromDistancesTest, NormalizedToUnitInterval) {
  std::vector<double> scores;
  ScoresFromDistancesInto({2.0, 5.0, 8.0}, &scores);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);   // closest
  EXPECT_DOUBLE_EQ(scores[1], 0.5);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);   // farthest
}

TEST(ScoresFromDistancesTest, AllEqualDistancesScoreOne) {
  std::vector<double> scores;
  ScoresFromDistancesInto({3.0, 3.0, 3.0}, &scores);
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
