#include <gtest/gtest.h>

#include <set>

#include "eval/agglomerative.h"

namespace privshape {
namespace {

using eval::AgglomerativeCluster;
using eval::Linkage;

/// Distance matrix with two obvious groups: {0,1,2} tight, {3,4} tight,
/// large separation between groups.
std::vector<std::vector<double>> TwoGroupMatrix() {
  const double kNear = 1.0, kFar = 50.0;
  std::vector<std::vector<double>> d(5, std::vector<double>(5, 0.0));
  auto set = [&](size_t i, size_t j, double v) { d[i][j] = d[j][i] = v; };
  set(0, 1, kNear);
  set(0, 2, kNear);
  set(1, 2, kNear);
  set(3, 4, kNear);
  for (size_t i : {0u, 1u, 2u}) {
    for (size_t j : {3u, 4u}) set(i, j, kFar);
  }
  return d;
}

TEST(AgglomerativeTest, RecoversTwoGroups) {
  for (Linkage linkage :
       {Linkage::kSingle, Linkage::kComplete, Linkage::kAverage}) {
    auto labels = AgglomerativeCluster(TwoGroupMatrix(), 2, linkage);
    ASSERT_TRUE(labels.ok());
    EXPECT_EQ((*labels)[0], (*labels)[1]);
    EXPECT_EQ((*labels)[1], (*labels)[2]);
    EXPECT_EQ((*labels)[3], (*labels)[4]);
    EXPECT_NE((*labels)[0], (*labels)[3]);
  }
}

TEST(AgglomerativeTest, KEqualsNLeavesSingletons) {
  auto labels = AgglomerativeCluster(TwoGroupMatrix(), 5);
  ASSERT_TRUE(labels.ok());
  std::set<int> distinct(labels->begin(), labels->end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(AgglomerativeTest, KEqualsOneMergesAll) {
  auto labels = AgglomerativeCluster(TwoGroupMatrix(), 1);
  ASSERT_TRUE(labels.ok());
  for (int l : *labels) EXPECT_EQ(l, (*labels)[0]);
}

TEST(AgglomerativeTest, RejectsInvalidInputs) {
  EXPECT_FALSE(AgglomerativeCluster({}, 1).ok());
  EXPECT_FALSE(AgglomerativeCluster(TwoGroupMatrix(), 0).ok());
  EXPECT_FALSE(AgglomerativeCluster(TwoGroupMatrix(), 6).ok());
  std::vector<std::vector<double>> ragged = {{0.0, 1.0}, {1.0}};
  EXPECT_FALSE(AgglomerativeCluster(ragged, 1).ok());
}

TEST(AgglomerativeTest, LabelsAreContiguousFromZero) {
  auto labels = AgglomerativeCluster(TwoGroupMatrix(), 2);
  ASSERT_TRUE(labels.ok());
  std::set<int> distinct(labels->begin(), labels->end());
  EXPECT_EQ(distinct.size(), 2u);
  EXPECT_TRUE(distinct.count(0));
  EXPECT_TRUE(distinct.count(1));
}

}  // namespace
}  // namespace privshape
