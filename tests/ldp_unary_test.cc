#include "ldp/unary_encoding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"

namespace privshape {
namespace {

using ldp::UnaryEncoding;
using Variant = ldp::UnaryEncoding::Variant;

TEST(UnaryTest, RejectsInvalidParameters) {
  EXPECT_FALSE(UnaryEncoding::Create(0, 1.0, Variant::kOptimized).ok());
  EXPECT_FALSE(UnaryEncoding::Create(4, 0.0, Variant::kOptimized).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(UnaryEncoding::Create(4, eps, Variant::kOptimized).ok());
    EXPECT_FALSE(UnaryEncoding::Create(4, eps, Variant::kSymmetric).ok());
  }
  // SUE's e^(epsilon/2) overflows past ~1419.6; OUE's q just reaches 0.
  EXPECT_FALSE(UnaryEncoding::Create(4, 1420.0, Variant::kSymmetric).ok());
  EXPECT_TRUE(UnaryEncoding::Create(4, 1420.0, Variant::kOptimized).ok());
  EXPECT_TRUE(UnaryEncoding::Create(1, 1.0, Variant::kSymmetric).ok());
}

TEST(UnaryTest, OueParameters) {
  auto oue = UnaryEncoding::Create(8, 1.5, Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  EXPECT_DOUBLE_EQ(oue->p(), 0.5);
  EXPECT_NEAR(oue->q(), 1.0 / (std::exp(1.5) + 1.0), 1e-12);
}

TEST(UnaryTest, SueParameters) {
  auto sue = UnaryEncoding::Create(8, 1.5, Variant::kSymmetric);
  ASSERT_TRUE(sue.ok());
  double e2 = std::exp(0.75);
  EXPECT_NEAR(sue->p(), e2 / (e2 + 1.0), 1e-12);
  EXPECT_NEAR(sue->q(), 1.0 - sue->p(), 1e-12);
}

TEST(UnaryTest, LdpRatioHolds) {
  // eps-LDP for unary encodings: p(1-q) / (q(1-p)) = e^eps.
  for (double eps : {0.5, 1.0, 3.0}) {
    for (Variant variant : {Variant::kOptimized, Variant::kSymmetric}) {
      auto ue = UnaryEncoding::Create(4, eps, variant);
      ASSERT_TRUE(ue.ok());
      double ratio =
          (ue->p() * (1.0 - ue->q())) / (ue->q() * (1.0 - ue->p()));
      EXPECT_NEAR(ratio, std::exp(eps), 1e-9);
    }
  }
}

TEST(UnaryTest, PerturbedBitsHaveRightLength) {
  auto oue = UnaryEncoding::Create(10, 1.0, Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng rng(41);
  auto bits = oue->PerturbValue(3, &rng);
  EXPECT_EQ(bits.size(), 10u);
}

TEST(UnaryTest, EstimatesAreUnbiasedOue) {
  auto oue = UnaryEncoding::Create(6, 1.0, Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng rng(42);
  const int n = 100000;
  std::vector<double> truth = {0.4, 0.3, 0.1, 0.1, 0.05, 0.05};
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(oue->SubmitUser(rng.Discrete(truth), &rng).ok());
  }
  auto counts = oue->EstimateCounts();
  for (size_t v = 0; v < truth.size(); ++v) {
    EXPECT_NEAR(counts[v] / n, truth[v], 0.02) << "value " << v;
  }
}

TEST(UnaryTest, EstimatesAreUnbiasedSue) {
  auto sue = UnaryEncoding::Create(4, 2.0, Variant::kSymmetric);
  ASSERT_TRUE(sue.ok());
  Rng rng(43);
  const int n = 100000;
  std::vector<double> truth = {0.7, 0.1, 0.1, 0.1};
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(sue->SubmitUser(rng.Discrete(truth), &rng).ok());
  }
  auto counts = sue->EstimateCounts();
  for (size_t v = 0; v < truth.size(); ++v) {
    EXPECT_NEAR(counts[v] / n, truth[v], 0.02) << "value " << v;
  }
}

TEST(UnaryTest, SubmitBitsAcceptsExternalEncoding) {
  // The PrivShape classification refinement builds cells externally.
  auto oue = UnaryEncoding::Create(4, 1.0, Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  EXPECT_TRUE(oue->SubmitBits({1, 0, 0, 1}).ok());
  EXPECT_FALSE(oue->SubmitBits({1, 0}).ok());  // wrong length
  EXPECT_EQ(oue->num_reports(), 1u);
}

TEST(UnaryTest, SubmitRejectsOutOfDomain) {
  auto oue = UnaryEncoding::Create(3, 1.0, Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng rng(44);
  EXPECT_FALSE(oue->SubmitUser(3, &rng).ok());
}

TEST(UnaryTest, ResetClearsState) {
  auto oue = UnaryEncoding::Create(3, 1.0, Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng rng(45);
  ASSERT_TRUE(oue->SubmitUser(1, &rng).ok());
  oue->Reset();
  EXPECT_EQ(oue->num_reports(), 0u);
}

TEST(UnaryTest, OueVarianceBeatsSueAtSameEps) {
  // OUE's q is smaller, so zero-bit noise is lower: check estimator spread
  // empirically on a point-mass distribution.
  const double eps = 1.0;
  const int n = 40000;
  auto run = [&](Variant variant, uint64_t seed) {
    auto ue = UnaryEncoding::Create(16, eps, variant);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(ue->SubmitUser(0, &rng).ok());
    }
    auto counts = ue->EstimateCounts();
    // Empirical MSE of the 15 zero-frequency cells.
    double mse = 0.0;
    for (size_t v = 1; v < 16; ++v) mse += counts[v] * counts[v];
    return mse / 15.0;
  };
  double oue_mse = 0.0, sue_mse = 0.0;
  for (uint64_t s = 0; s < 5; ++s) {
    oue_mse += run(Variant::kOptimized, 100 + s);
    sue_mse += run(Variant::kSymmetric, 200 + s);
  }
  EXPECT_LT(oue_mse, sue_mse);
}

}  // namespace
}  // namespace privshape
