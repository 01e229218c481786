#include "ldp/grr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "ldp/estimator_utils.h"

namespace privshape {
namespace {

using ldp::Grr;

TEST(GrrTest, RejectsInvalidParameters) {
  EXPECT_FALSE(Grr::Create(1, 1.0).ok());
  EXPECT_FALSE(Grr::Create(4, 0.0).ok());
  EXPECT_FALSE(Grr::Create(4, -1.0).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(Grr::Create(4, eps).ok()) << eps;
  }
  // e^epsilon overflows a double past ~709.78: p would be inf / inf.
  EXPECT_TRUE(Grr::Create(4, 700.0).ok());
  EXPECT_FALSE(Grr::Create(4, 710.0).ok());
  EXPECT_TRUE(Grr::Create(2, 0.1).ok());
}

TEST(GrrTest, ProbabilitiesSatisfyLdpRatio) {
  for (double eps : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    for (size_t d : {2u, 5u, 13u}) {
      auto grr = Grr::Create(d, eps);
      ASSERT_TRUE(grr.ok());
      // p / q must equal e^eps exactly: the eps-LDP worst case.
      EXPECT_NEAR(grr->p() / grr->q(), std::exp(eps), 1e-9);
      // And the transition kernel must be a proper distribution.
      double total = grr->p() + static_cast<double>(d - 1) * grr->q();
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(GrrTest, TransitionProbabilityMatchesPQ) {
  auto grr = Grr::Create(5, 1.0);
  ASSERT_TRUE(grr.ok());
  EXPECT_DOUBLE_EQ(grr->TransitionProbability(2, 2), grr->p());
  EXPECT_DOUBLE_EQ(grr->TransitionProbability(2, 3), grr->q());
}

TEST(GrrTest, PerturbKeepsValueWithHighProbabilityAtLargeEps) {
  auto grr = Grr::Create(4, 8.0);
  ASSERT_TRUE(grr.ok());
  Rng rng(31);
  int kept = 0;
  for (int i = 0; i < 1000; ++i) {
    if (grr->PerturbValue(2, &rng) == 2) ++kept;
  }
  EXPECT_GT(kept, 950);  // p ~ 0.999 at eps=8, d=4
}

TEST(GrrTest, PerturbOutputsStayInDomain) {
  auto grr = Grr::Create(6, 0.5);
  ASSERT_TRUE(grr.ok());
  Rng rng(32);
  for (int i = 0; i < 2000; ++i) {
    size_t out = grr->PerturbValue(static_cast<size_t>(i % 6), &rng);
    EXPECT_LT(out, 6u);
  }
}

TEST(GrrTest, EmpiricalKeepRateMatchesP) {
  auto grr = Grr::Create(4, 1.0);
  ASSERT_TRUE(grr.ok());
  Rng rng(33);
  int kept = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (grr->PerturbValue(1, &rng) == 1) ++kept;
  }
  EXPECT_NEAR(static_cast<double>(kept) / n, grr->p(), 0.01);
}

TEST(GrrTest, EstimatesAreUnbiased) {
  // True distribution over d = 5: {0.5, 0.2, 0.1, 0.1, 0.1} * n.
  auto grr = Grr::Create(5, 1.0);
  ASSERT_TRUE(grr.ok());
  Rng rng(34);
  const int n = 200000;
  std::vector<double> truth = {0.5, 0.2, 0.1, 0.1, 0.1};
  std::vector<size_t> tally(truth.size(), 0);
  for (int i = 0; i < n; ++i) {
    tally[grr->PerturbValue(rng.Discrete(truth), &rng)]++;
  }
  auto counts = ldp::DebiasGrrCounts(tally, n, 1.0);
  for (size_t v = 0; v < truth.size(); ++v) {
    EXPECT_NEAR(counts[v] / n, truth[v], 0.02) << "value " << v;
  }
}

TEST(GrrTest, EstimateSumsToN) {
  // Debiased counts always sum to n (the estimator preserves total mass).
  auto grr = Grr::Create(4, 0.8);
  ASSERT_TRUE(grr.ok());
  Rng rng(37);
  const int n = 10000;
  std::vector<size_t> tally(4, 0);
  for (int i = 0; i < n; ++i) {
    tally[grr->PerturbValue(static_cast<size_t>(i % 4), &rng)]++;
  }
  auto counts = ldp::DebiasGrrCounts(tally, n, 0.8);
  double total = 0.0;
  for (double c : counts) total += c;
  EXPECT_NEAR(total, n, 1e-6);
}

}  // namespace
}  // namespace privshape
