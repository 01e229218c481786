#include "ldp/numeric.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace privshape {
namespace {

using ldp::PiecewiseMechanism;

TEST(PiecewiseTest, RejectsInvalidEps) {
  EXPECT_FALSE(PiecewiseMechanism::Create(0.0).ok());
  EXPECT_TRUE(PiecewiseMechanism::Create(0.5).ok());
}

TEST(PiecewiseTest, OutputBoundFormula) {
  auto pm = PiecewiseMechanism::Create(2.0);
  ASSERT_TRUE(pm.ok());
  double e_half = std::exp(1.0);
  EXPECT_NEAR(pm->output_bound(), (e_half + 1.0) / (e_half - 1.0), 1e-12);
}

TEST(PiecewiseTest, OutputsStayInBounds) {
  auto pm = PiecewiseMechanism::Create(1.0);
  ASSERT_TRUE(pm.ok());
  Rng rng(71);
  double c = pm->output_bound();
  for (int i = 0; i < 5000; ++i) {
    double v = rng.Uniform(-1.0, 1.0);
    double out = pm->Perturb(v, &rng);
    EXPECT_GE(out, -c - 1e-9);
    EXPECT_LE(out, c + 1e-9);
  }
}

class PiecewiseUnbiasedTest : public ::testing::TestWithParam<double> {};

TEST_P(PiecewiseUnbiasedTest, MeanIsTrueValue) {
  double v = GetParam();
  auto pm = PiecewiseMechanism::Create(2.0);
  ASSERT_TRUE(pm.ok());
  Rng rng(72);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += pm->Perturb(v, &rng);
  EXPECT_NEAR(sum / n, v, 0.02) << "v=" << v;
}

INSTANTIATE_TEST_SUITE_P(InputGrid, PiecewiseUnbiasedTest,
                         ::testing::Values(-1.0, -0.5, 0.0, 0.3, 1.0));

TEST(PiecewiseTest, DensityRatioIsExactlyExpEps) {
  // The worst-case density ratio between any two inputs at any output
  // equals e^eps — the eps-LDP property, checked on the closed form.
  for (double eps : {0.5, 1.0, 2.0, 4.0}) {
    auto pm = PiecewiseMechanism::Create(eps);
    ASSERT_TRUE(pm.ok());
    Rng rng(73);
    double c = pm->output_bound();
    for (int trial = 0; trial < 500; ++trial) {
      double v1 = rng.Uniform(-1.0, 1.0);
      double v2 = rng.Uniform(-1.0, 1.0);
      double out = rng.Uniform(-c, c);
      double d1 = pm->DensityAt(v1, out);
      double d2 = pm->DensityAt(v2, out);
      ASSERT_GT(d2, 0.0);
      EXPECT_LE(d1 / d2, std::exp(eps) + 1e-9);
    }
  }
}

TEST(PiecewiseTest, DensityIntegratesToOne) {
  auto pm = PiecewiseMechanism::Create(1.5);
  ASSERT_TRUE(pm.ok());
  double c = pm->output_bound();
  const int steps = 200000;
  double dx = 2.0 * c / steps;
  double mass = 0.0;
  for (int i = 0; i < steps; ++i) {
    double x = -c + (i + 0.5) * dx;
    mass += pm->DensityAt(0.3, x) * dx;
  }
  EXPECT_NEAR(mass, 1.0, 1e-3);
}

TEST(PiecewiseTest, ClampsInputsOutsideUnitRange) {
  auto pm = PiecewiseMechanism::Create(2.0);
  ASSERT_TRUE(pm.ok());
  Rng rng(74);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += pm->Perturb(7.0, &rng);
  EXPECT_NEAR(sum / n, 1.0, 0.05);  // clamped to 1
}

}  // namespace
}  // namespace privshape
