// Empirical eps-LDP verification sweeps: for each oracle and budget, the
// worst-case likelihood ratio between any two inputs producing the same
// output must stay within e^eps. These complement the closed-form checks
// in the per-oracle tests by exercising the actual sampling paths.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "ldp/grr.h"
#include "ldp/numeric.h"
#include "ldp/unary_encoding.h"

namespace privshape {
namespace {

struct SweepParam {
  double epsilon;
  size_t domain;
};

class GrrEmpiricalTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GrrEmpiricalTest, EmpiricalTransitionRatioWithinBudget) {
  auto [eps, d] = GetParam();
  auto grr = ldp::Grr::Create(d, eps);
  ASSERT_TRUE(grr.ok());
  const int n = 40000;
  // Empirical output distribution for inputs 0 and 1.
  std::vector<double> out0(d, 0.0), out1(d, 0.0);
  Rng rng(301);
  for (int i = 0; i < n; ++i) {
    out0[grr->PerturbValue(0, &rng)] += 1.0;
    out1[grr->PerturbValue(1, &rng)] += 1.0;
  }
  for (size_t y = 0; y < d; ++y) {
    if (out0[y] < 50 || out1[y] < 50) continue;  // skip noisy cells
    double ratio = out0[y] / out1[y];
    // Allow sampling slack on top of e^eps.
    EXPECT_LE(ratio, std::exp(eps) * 1.25)
        << "eps=" << eps << " d=" << d << " y=" << y;
    EXPECT_GE(ratio, std::exp(-eps) / 1.25);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GrrEmpiricalTest,
    ::testing::Values(SweepParam{0.5, 2}, SweepParam{0.5, 8},
                      SweepParam{1.0, 4}, SweepParam{2.0, 4},
                      SweepParam{2.0, 16}, SweepParam{4.0, 8}));

// (eps, v): the OUE report of input v against that of input v + 1.
class UnaryEmpiricalTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(UnaryEmpiricalTest, PerBitRatioWithinBudget) {
  auto [eps, lower] = GetParam();
  const size_t v = static_cast<size_t>(lower);
  auto ue = ldp::UnaryEncoding::Create(6, eps);
  ASSERT_TRUE(ue.ok());
  const int n = 30000;
  Rng rng(302);
  // Inputs v and v + 1 differ in exactly bits v and v + 1; worst-case
  // likelihood ratio for any single report is p(1-q)/(q(1-p)) and must be
  // <= e^eps. Measure the per-bit marginals empirically.
  std::vector<double> ones0(6, 0.0), ones1(6, 0.0);
  for (int i = 0; i < n; ++i) {
    auto b0 = ue->PerturbValue(v, &rng);
    auto b1 = ue->PerturbValue(v + 1, &rng);
    for (size_t j = 0; j < 6; ++j) {
      ones0[j] += b0[j];
      ones1[j] += b1[j];
    }
  }
  // The joint worst case multiplies the two differing bits' ratios.
  double p0 = ones0[v] / n, p1 = ones1[v] / n;
  double q0 = 1.0 - ones0[v + 1] / n, q1 = 1.0 - ones1[v + 1] / n;
  double worst = (p0 / p1) * (q0 / q1);
  EXPECT_LE(worst, std::exp(eps) * 1.2) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Grid, UnaryEmpiricalTest,
                         ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                                            ::testing::Values(0)));

class PiecewiseEmpiricalTest : public ::testing::TestWithParam<double> {};

TEST_P(PiecewiseEmpiricalTest, HistogramDensityRatioWithinBudget) {
  double eps = GetParam();
  auto pm = ldp::PiecewiseMechanism::Create(eps);
  ASSERT_TRUE(pm.ok());
  const int n = 200000;
  const int bins = 24;
  double c = pm->output_bound();
  auto histogram = [&](double v, uint64_t seed) {
    std::vector<double> h(bins, 0.0);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      double out = pm->Perturb(v, &rng);
      int b = static_cast<int>((out + c) / (2.0 * c) * bins);
      b = std::min(std::max(b, 0), bins - 1);
      h[static_cast<size_t>(b)] += 1.0;
    }
    return h;
  };
  auto h0 = histogram(-0.8, 303);
  auto h1 = histogram(0.8, 304);
  for (int b = 0; b < bins; ++b) {
    if (h0[static_cast<size_t>(b)] < 200 || h1[static_cast<size_t>(b)] < 200)
      continue;
    double ratio = h0[static_cast<size_t>(b)] / h1[static_cast<size_t>(b)];
    // Bins straddling a band edge mix densities; allow generous slack but
    // still catch order-of-magnitude violations.
    EXPECT_LE(ratio, std::exp(eps) * 1.6) << "eps=" << eps << " bin=" << b;
    EXPECT_GE(ratio, std::exp(-eps) / 1.6);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, PiecewiseEmpiricalTest,
                         ::testing::Values(0.5, 1.0, 2.0));

}  // namespace
}  // namespace privshape
