#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace privshape {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.5, 4.0);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 4.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMeanApproximatesP) {
  Rng rng(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(8);
  const int n = 50000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(1.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, DiscreteFollowsWeights) {
  Rng rng(10);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[rng.Discrete(weights)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, DiscreteAllZeroWeightsIsUniform) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 0.0, 0.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) counts[rng.Discrete(weights)]++;
  for (int c : counts) EXPECT_GT(c, 1500);
}

TEST(RngTest, DiscreteIgnoresNegativeWeights) {
  Rng rng(12);
  std::vector<double> weights = {-5.0, 1.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Discrete(weights), 1u);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(13);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent2(13);
  (void)parent2.engine()();  // parent consumed one draw to fork
  double a = child.Uniform();
  double b = parent.Uniform();
  EXPECT_NE(a, b);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(14);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// --- LazyMt64: the engine behind Rng -------------------------------------
//
// The lazy engine must emit EXACTLY std::mt19937_64's stream (the
// generator is fully specified by the standard): the whole repo's
// byte-identical determinism story sits on top of this equivalence.

TEST(LazyMt64Test, BitExactAgainstStdMt19937_64) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{0x5eed5eed},
                        uint64_t{0xdeadbeefcafe}, ~uint64_t{0}}) {
    std::mt19937_64 ref(seed);
    LazyMt64 lazy(seed);
    // Covers the lazy prefix (outputs 0..155), the materialization
    // boundary at output 156, and a long tail through several twists.
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(ref(), lazy()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(LazyMt64Test, DiscardMatchesStd) {
  std::mt19937_64 ref(42);
  LazyMt64 lazy(42);
  ref.discard(10);
  lazy.discard(10);
  for (int i = 0; i < 300; ++i) ASSERT_EQ(ref(), lazy()) << i;
}

TEST(LazyMt64Test, DistributionsSeeTheSameStream) {
  // Rng's distributions are deterministic functions of the engine
  // outputs, so they must agree with the same distributions over a
  // std::mt19937_64 seeded identically.
  Rng rng(1234);
  std::mt19937_64 ref(1234);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.Uniform(),
              std::uniform_real_distribution<double>(0.0, 1.0)(ref));
  }
}

}  // namespace
}  // namespace privshape

