#include "common/math_utils.h"

#include <gtest/gtest.h>

#include <cmath>

namespace privshape {
namespace {

TEST(MathTest, MeanAndVariance) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(v), 3.0);
  EXPECT_DOUBLE_EQ(Variance(v), 2.0);
  EXPECT_DOUBLE_EQ(Stddev(v), std::sqrt(2.0));
}

TEST(MathTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0.0);
}

TEST(MathTest, ZNormalizeProducesZeroMeanUnitVar) {
  std::vector<double> v = {2, 4, 6, 8, 10, 12};
  ZNormalize(&v);
  EXPECT_NEAR(Mean(v), 0.0, 1e-12);
  EXPECT_NEAR(Stddev(v), 1.0, 1e-12);
}

TEST(MathTest, ZNormalizeConstantSeriesBecomesZeros) {
  std::vector<double> v = {7, 7, 7, 7};
  ZNormalize(&v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(MathTest, ZNormalizedCopyLeavesInputIntact) {
  std::vector<double> v = {1, 2, 3};
  auto z = ZNormalized(v);
  EXPECT_EQ(v[0], 1);
  EXPECT_NEAR(Mean(z), 0.0, 1e-12);
}

TEST(MathTest, ClampBounds) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathTest, InverseNormalCdfKnownQuantiles) {
  EXPECT_NEAR(InverseNormalCdf(0.5), 0.0, 1e-9);
  // The paper's t=3 SAX breakpoints: +/- 0.43.
  EXPECT_NEAR(InverseNormalCdf(1.0 / 3.0), -0.4307, 1e-3);
  EXPECT_NEAR(InverseNormalCdf(2.0 / 3.0), 0.4307, 1e-3);
  EXPECT_NEAR(InverseNormalCdf(0.975), 1.959964, 1e-6);
  EXPECT_NEAR(InverseNormalCdf(0.025), -1.959964, 1e-6);
}

TEST(MathTest, InverseNormalCdfIsInverseOfCdf) {
  for (double p = 0.01; p < 1.0; p += 0.007) {
    EXPECT_NEAR(NormalCdf(InverseNormalCdf(p)), p, 1e-8) << "p=" << p;
  }
}

TEST(MathTest, InverseNormalCdfEdgeCases) {
  EXPECT_TRUE(std::isinf(InverseNormalCdf(0.0)));
  EXPECT_TRUE(std::isinf(InverseNormalCdf(1.0)));
  EXPECT_LT(InverseNormalCdf(0.0), 0.0);
  EXPECT_GT(InverseNormalCdf(1.0), 0.0);
}

}  // namespace
}  // namespace privshape
