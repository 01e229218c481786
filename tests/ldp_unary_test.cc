#include "ldp/unary_encoding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "ldp/estimator_utils.h"

namespace privshape {
namespace {

using ldp::UnaryEncoding;

TEST(UnaryTest, RejectsInvalidParameters) {
  EXPECT_FALSE(UnaryEncoding::Create(0, 1.0).ok());
  EXPECT_FALSE(UnaryEncoding::Create(4, 0.0).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(UnaryEncoding::Create(4, eps).ok());
  }
  // OUE's q just reaches 0 at a huge epsilon; p stays 1/2.
  EXPECT_TRUE(UnaryEncoding::Create(4, 1420.0).ok());
  EXPECT_TRUE(UnaryEncoding::Create(1, 1.0).ok());
}

TEST(UnaryTest, OueParameters) {
  auto oue = UnaryEncoding::Create(8, 1.5);
  ASSERT_TRUE(oue.ok());
  EXPECT_DOUBLE_EQ(oue->p(), 0.5);
  EXPECT_NEAR(oue->q(), 1.0 / (std::exp(1.5) + 1.0), 1e-12);
}

TEST(UnaryTest, LdpRatioHolds) {
  // eps-LDP for unary encodings: p(1-q) / (q(1-p)) = e^eps.
  for (double eps : {0.5, 1.0, 3.0}) {
    auto ue = UnaryEncoding::Create(4, eps);
    ASSERT_TRUE(ue.ok());
    double ratio = (ue->p() * (1.0 - ue->q())) / (ue->q() * (1.0 - ue->p()));
    EXPECT_NEAR(ratio, std::exp(eps), 1e-9);
  }
}

TEST(UnaryTest, PerturbedBitsHaveRightLength) {
  auto oue = UnaryEncoding::Create(10, 1.0);
  ASSERT_TRUE(oue.ok());
  Rng rng(41);
  auto bits = oue->PerturbValue(3, &rng);
  EXPECT_EQ(bits.size(), 10u);
}

TEST(UnaryTest, EstimatesAreUnbiasedOue) {
  auto oue = UnaryEncoding::Create(6, 1.0);
  ASSERT_TRUE(oue.ok());
  Rng rng(42);
  const int n = 100000;
  std::vector<double> truth = {0.4, 0.3, 0.1, 0.1, 0.05, 0.05};
  std::vector<size_t> tally(truth.size(), 0);
  for (int i = 0; i < n; ++i) {
    std::vector<uint8_t> bits = oue->PerturbValue(rng.Discrete(truth), &rng);
    for (size_t v = 0; v < bits.size(); ++v) tally[v] += bits[v];
  }
  auto counts = ldp::DebiasOueCounts(tally, n, 1.0);
  for (size_t v = 0; v < truth.size(); ++v) {
    EXPECT_NEAR(counts[v] / n, truth[v], 0.02) << "value " << v;
  }
}

}  // namespace
}  // namespace privshape
