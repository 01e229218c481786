#include "ldp/estimator_utils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ldp/grr.h"
#include "ldp/unary_encoding.h"

namespace privshape {
namespace {

using ldp::DebiasGrrCounts;
using ldp::DebiasOueCounts;
using ldp::GrrParameters;
using ldp::OueParameters;

TEST(EstimatorUtilsTest, GrrParametersMatchOracle) {
  auto grr = ldp::Grr::Create(7, 1.3);
  ASSERT_TRUE(grr.ok());
  double p, q;
  GrrParameters(7, 1.3, &p, &q);
  EXPECT_DOUBLE_EQ(p, grr->p());
  EXPECT_DOUBLE_EQ(q, grr->q());
}

TEST(EstimatorUtilsTest, OueParametersClosedForm) {
  double p, q;
  OueParameters(2.0, &p, &q);
  EXPECT_DOUBLE_EQ(p, 0.5);
  EXPECT_NEAR(q, 1.0 / (std::exp(2.0) + 1.0), 1e-12);
}

TEST(EstimatorUtilsTest, DebiasIsTheClosedFormOverTheMechanismParameters) {
  // Each oracle's one debias is (c - n*q) / (p - q), bit for bit, over
  // exactly the p and q its mechanism perturbs with.
  const std::vector<size_t> tally = {0, 3, 17, 250, 1000};
  const double n = 1000.0;
  auto closed_form = [&](double p, double q) {
    std::vector<double> out;
    for (size_t c : tally) {
      out.push_back((static_cast<double>(c) - n * q) / (p - q));
    }
    return out;
  };
  for (double eps : {0.1, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    auto grr = ldp::Grr::Create(tally.size(), eps);
    auto oue = ldp::UnaryEncoding::Create(tally.size(), eps);
    ASSERT_TRUE(grr.ok() && oue.ok());
    double p, q;
    OueParameters(eps, &p, &q);
    EXPECT_EQ(p, oue->p()) << eps;
    EXPECT_EQ(q, oue->q()) << eps;
    EXPECT_EQ(DebiasGrrCounts(tally, 1000, eps),
              closed_form(grr->p(), grr->q()))
        << eps;
    EXPECT_EQ(DebiasOueCounts(tally, 1000, eps), closed_form(p, q)) << eps;
    EXPECT_TRUE(DebiasGrrCounts({}, 0, eps).empty()) << eps;
    EXPECT_TRUE(DebiasOueCounts({}, 0, eps).empty()) << eps;
  }
}

}  // namespace
}  // namespace privshape
