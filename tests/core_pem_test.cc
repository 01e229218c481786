#include "core/pem.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "series/sequence.h"

namespace privshape {
namespace {

using core::PemConfig;
using core::PemMiner;

std::vector<Sequence> PlantedSequences(size_t n, uint64_t seed = 1) {
  std::vector<Sequence> out;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    if (u < 0.6) {
      out.push_back({0, 1, 2, 0});   // "abca"
    } else if (u < 0.9) {
      out.push_back({2, 1, 0, 2});   // "cbac"
    } else {
      out.push_back({1, 2, 0, 1});   // "bcab"
    }
  }
  return out;
}

PemConfig TestConfig() {
  PemConfig config;
  config.epsilon = 6.0;
  config.t = 3;
  config.k = 2;
  config.keep = 6;
  config.gamma = 2;
  config.ell = 4;
  config.seed = 5;
  return config;
}

TEST(PemTest, ValidatesConfig) {
  PemConfig bad = TestConfig();
  bad.gamma = 0;
  EXPECT_FALSE(PemMiner(bad).Run(PlantedSequences(100)).ok());
  bad = TestConfig();
  bad.keep = 1;  // keep < k
  EXPECT_FALSE(PemMiner(bad).Run(PlantedSequences(100)).ok());
  bad = TestConfig();
  bad.epsilon = 0;
  EXPECT_FALSE(PemMiner(bad).Run(PlantedSequences(100)).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    bad.epsilon = eps;
    EXPECT_FALSE(bad.Validate().ok()) << eps;
  }
}

TEST(PemTest, RejectsEmptyDataset) {
  EXPECT_FALSE(PemMiner(TestConfig()).Run({}).ok());
}

TEST(PemTest, RecoversPlantedShapeAtHighEps) {
  PemMiner miner(TestConfig());
  auto result = miner.Run(PlantedSequences(6000));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->shapes.size(), 1u);
  EXPECT_EQ(SequenceToString(result->shapes[0].shape), "abca");
}

TEST(PemTest, GammaOneMatchesGammaTwoOnEasyData) {
  auto sequences = PlantedSequences(6000);
  PemConfig g1 = TestConfig();
  g1.gamma = 1;
  PemConfig g2 = TestConfig();
  g2.gamma = 2;
  auto r1 = PemMiner(g1).Run(sequences);
  auto r2 = PemMiner(g2).Run(sequences);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(SequenceToString(r1->shapes[0].shape), "abca");
  EXPECT_EQ(SequenceToString(r2->shapes[0].shape), "abca");
}

TEST(PemTest, OutputLengthMatchesEll) {
  PemMiner miner(TestConfig());
  auto result = miner.Run(PlantedSequences(4000));
  ASSERT_TRUE(result.ok());
  for (const auto& shape : result->shapes) {
    EXPECT_EQ(shape.shape.size(), 4u);
  }
}

TEST(PemTest, RespectsCompressionInvariant) {
  PemMiner miner(TestConfig());
  auto result = miner.Run(PlantedSequences(3000));
  ASSERT_TRUE(result.ok());
  for (const auto& shape : result->shapes) {
    for (size_t i = 1; i < shape.shape.size(); ++i) {
      EXPECT_NE(shape.shape[i], shape.shape[i - 1]);
    }
  }
}

TEST(PemTest, BudgetIsUserLevel) {
  PemMiner miner(TestConfig());
  auto result = miner.Run(PlantedSequences(3000));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->accountant.UserLevelEpsilon(), 6.0 + 1e-9);
}

TEST(PemTest, DeterministicForSeed) {
  auto sequences = PlantedSequences(3000);
  PemMiner miner(TestConfig());
  auto a = miner.Run(sequences);
  auto b = miner.Run(sequences);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->shapes.size(), b->shapes.size());
  for (size_t i = 0; i < a->shapes.size(); ++i) {
    EXPECT_EQ(a->shapes[i].shape, b->shapes[i].shape);
  }
}

TEST(PemTest, AllowRepeatsExpandsDomain) {
  // With repeats allowed the miner can represent runs.
  std::vector<Sequence> sequences(3000, Sequence{0, 0, 1, 1});
  PemConfig config = TestConfig();
  config.t = 2;
  config.allow_repeats = true;
  config.gamma = 2;
  config.ell = 4;
  PemMiner miner(config);
  auto result = miner.Run(sequences);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(SequenceToString(result->shapes[0].shape), "aabb");
}

}  // namespace
}  // namespace privshape
