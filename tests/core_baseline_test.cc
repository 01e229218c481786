#include "core/baseline.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "series/sequence.h"

namespace privshape {
namespace {

using core::BaselineMechanism;
using core::MechanismConfig;

/// Planted-shape population: 60% "abc", 30% "cba", 10% "bab".
std::vector<Sequence> PlantedSequences(size_t n, uint64_t seed = 1) {
  std::vector<Sequence> out;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    if (u < 0.6) {
      out.push_back({0, 1, 2});
    } else if (u < 0.9) {
      out.push_back({2, 1, 0});
    } else {
      out.push_back({1, 0, 1});
    }
  }
  return out;
}

MechanismConfig TestConfig() {
  MechanismConfig config;
  config.epsilon = 6.0;
  config.t = 3;
  config.k = 2;
  config.c = 3;
  config.ell_low = 1;
  config.ell_high = 6;
  config.metric = dist::Metric::kSed;
  config.baseline_threshold = 10.0;
  config.seed = 7;
  return config;
}

TEST(BaselineTest, ValidatesConfig) {
  MechanismConfig bad = TestConfig();
  bad.epsilon = -1.0;
  BaselineMechanism mech(bad);
  EXPECT_FALSE(mech.Run(PlantedSequences(100)).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    bad.epsilon = eps;
    EXPECT_FALSE(bad.Validate().ok()) << eps;
  }
}

TEST(BaselineTest, RejectsEmptyDataset) {
  BaselineMechanism mech(TestConfig());
  EXPECT_FALSE(mech.Run({}).ok());
}

TEST(BaselineTest, RecoversPlantedShapeAtHighEps) {
  BaselineMechanism mech(TestConfig());
  auto result = mech.Run(PlantedSequences(4000));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->frequent_length, 3);
  ASSERT_GE(result->shapes.size(), 1u);
  EXPECT_EQ(SequenceToString(result->shapes[0].shape), "abc");
}

TEST(BaselineTest, ShapesSortedByFrequency) {
  BaselineMechanism mech(TestConfig());
  auto result = mech.Run(PlantedSequences(4000));
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->shapes.size(); ++i) {
    EXPECT_GE(result->shapes[i - 1].frequency, result->shapes[i].frequency);
  }
}

TEST(BaselineTest, StaysWithinUserLevelBudget) {
  BaselineMechanism mech(TestConfig());
  auto result = mech.Run(PlantedSequences(2000));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->accountant.UserLevelEpsilon(),
            mech.config().epsilon + 1e-9);
  // Each population was charged at most once per user.
  for (const auto& [name, eps] : result->accountant.charges()) {
    EXPECT_LE(eps, mech.config().epsilon + 1e-9) << name;
  }
}

TEST(BaselineTest, DeterministicForFixedSeed) {
  BaselineMechanism mech(TestConfig());
  auto sequences = PlantedSequences(2000);
  auto a = mech.Run(sequences);
  auto b = mech.Run(sequences);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->shapes.size(), b->shapes.size());
  for (size_t i = 0; i < a->shapes.size(); ++i) {
    EXPECT_EQ(a->shapes[i].shape, b->shapes[i].shape);
    EXPECT_DOUBLE_EQ(a->shapes[i].frequency, b->shapes[i].frequency);
  }
}

TEST(BaselineTest, ReturnsAtMostKShapes) {
  MechanismConfig config = TestConfig();
  config.k = 2;
  BaselineMechanism mech(config);
  auto result = mech.Run(PlantedSequences(3000));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->shapes.size(), 2u);
}

TEST(BaselineTest, AggressiveThresholdStopsGracefully) {
  MechanismConfig config = TestConfig();
  config.baseline_threshold = 1e9;  // prunes everything after level 1
  BaselineMechanism mech(config);
  auto result = mech.Run(PlantedSequences(1000));
  // Must not crash; shapes may be shorter than ell_S but still exist.
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->shapes.size(), 1u);
}

TEST(BaselineTest, SingleLengthSequencesWork) {
  MechanismConfig config = TestConfig();
  std::vector<Sequence> sequences(1000, Sequence{1});
  BaselineMechanism mech(config);
  auto result = mech.Run(sequences);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->frequent_length, 1);
  ASSERT_GE(result->shapes.size(), 1u);
  EXPECT_EQ(SequenceToString(result->shapes[0].shape), "b");
}

}  // namespace
}  // namespace privshape
