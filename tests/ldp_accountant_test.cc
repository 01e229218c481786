#include "ldp/accountant.h"

#include <gtest/gtest.h>

#include <limits>

namespace privshape {
namespace {

using ldp::PrivacyAccountant;

TEST(AccountantTest, FreshAccountantSpendsNothing) {
  PrivacyAccountant acc;
  EXPECT_DOUBLE_EQ(acc.UserLevelEpsilon(), 0.0);
  EXPECT_TRUE(acc.CheckWithinBudget(0.0).ok());
}

TEST(AccountantTest, ParallelCompositionTakesMax) {
  PrivacyAccountant acc;
  ASSERT_TRUE(acc.Charge("Pa", 1.0).ok());
  ASSERT_TRUE(acc.Charge("Pb", 2.5).ok());
  ASSERT_TRUE(acc.Charge("Pc", 0.5).ok());
  EXPECT_DOUBLE_EQ(acc.UserLevelEpsilon(), 2.5);
}

TEST(AccountantTest, SequentialCompositionAddsWithinPopulation) {
  PrivacyAccountant acc;
  ASSERT_TRUE(acc.Charge("Pa", 1.0).ok());
  ASSERT_TRUE(acc.Charge("Pa", 1.5).ok());
  EXPECT_DOUBLE_EQ(acc.PopulationEpsilon("Pa"), 2.5);
  EXPECT_DOUBLE_EQ(acc.UserLevelEpsilon(), 2.5);
}

TEST(AccountantTest, UnknownPopulationIsZero) {
  PrivacyAccountant acc;
  EXPECT_DOUBLE_EQ(acc.PopulationEpsilon("nope"), 0.0);
}

TEST(AccountantTest, RejectsNegativeCharge) {
  PrivacyAccountant acc;
  EXPECT_FALSE(acc.Charge("Pa", -0.1).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(acc.Charge("Pa", eps).ok()) << eps;
  }
  EXPECT_TRUE(acc.charges().empty());
}

TEST(AccountantTest, BudgetCheckPassesAtExactBudget) {
  PrivacyAccountant acc;
  ASSERT_TRUE(acc.Charge("Pa", 4.0).ok());
  EXPECT_TRUE(acc.CheckWithinBudget(4.0).ok());
}

TEST(AccountantTest, BudgetCheckFailsWhenExceeded) {
  PrivacyAccountant acc;
  ASSERT_TRUE(acc.Charge("Pa", 4.0).ok());
  ASSERT_TRUE(acc.Charge("Pa", 0.5).ok());
  Status s = acc.CheckWithinBudget(4.0);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(AccountantTest, ChargesAreInspectable) {
  PrivacyAccountant acc;
  ASSERT_TRUE(acc.Charge("Pa", 1.0).ok());
  ASSERT_TRUE(acc.Charge("Pd", 2.0).ok());
  EXPECT_EQ(acc.charges().size(), 2u);
  EXPECT_DOUBLE_EQ(acc.charges().at("Pd"), 2.0);
}

}  // namespace
}  // namespace privshape
