#include "patternldp/pattern_ldp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/math_utils.h"
#include "common/rng.h"
#include "patternldp/pid.h"
#include "series/generators.h"

namespace privshape {
namespace {

using pldp::ImportanceScores;
using pldp::PatternLdp;
using pldp::PatternLdpConfig;
using pldp::PidController;

TEST(PidTest, ProportionalOnlyTracksError) {
  PidController pid(2.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(pid.Update(1.0), 2.0);
  EXPECT_DOUBLE_EQ(pid.Update(-0.5), -1.0);
}

TEST(PidTest, IntegralAccumulates) {
  PidController pid(0.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(pid.Update(1.0), 1.0);
  EXPECT_DOUBLE_EQ(pid.Update(1.0), 2.0);
  EXPECT_DOUBLE_EQ(pid.Update(1.0), 3.0);
}

TEST(PidTest, DerivativeSeesChange) {
  PidController pid(0.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(pid.Update(1.0), 0.0);  // no previous error yet
  EXPECT_DOUBLE_EQ(pid.Update(3.0), 2.0);
  EXPECT_DOUBLE_EQ(pid.Update(3.0), 0.0);
}

TEST(PidTest, ResetClearsState) {
  PidController pid(1.0, 1.0, 1.0);
  pid.Update(5.0);
  pid.Reset();
  EXPECT_DOUBLE_EQ(pid.Update(1.0), 2.0);  // kp*1 + ki*1 + kd*0
}

TEST(ImportanceTest, LinearSeriesHasLowInteriorScores) {
  std::vector<double> linear;
  for (int i = 0; i < 50; ++i) linear.push_back(0.1 * i);
  auto scores = ImportanceScores(linear, 0.9, 0.1, 0.0);
  ASSERT_EQ(scores.size(), linear.size());
  for (size_t i = 2; i < scores.size(); ++i) {
    EXPECT_NEAR(scores[i], 0.0, 1e-9);
  }
}

TEST(ImportanceTest, TrendChangeScoresHigh) {
  // Flat then a sharp step: the step point must outscore flat points.
  std::vector<double> v(40, 0.0);
  for (size_t i = 20; i < 40; ++i) v[i] = 5.0;
  auto scores = ImportanceScores(v, 0.9, 0.1, 0.0);
  double flat_score = scores[10];
  double step_score = scores[20];
  EXPECT_GT(step_score, flat_score + 1.0);
}

TEST(ImportanceTest, TinySeriesUniform) {
  auto scores = ImportanceScores({1.0, 2.0}, 0.9, 0.1, 0.0);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
  EXPECT_DOUBLE_EQ(scores[1], 1.0);
}

TEST(PatternLdpTest, ConfigValidation) {
  PatternLdpConfig config;
  config.epsilon = 0.0;
  EXPECT_FALSE(PatternLdp::Create(config).ok());
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    config.epsilon = eps;
    EXPECT_FALSE(PatternLdp::Create(config).ok()) << eps;
  }
  config.epsilon = 1.0;
  config.sample_fraction = 0.0;
  EXPECT_FALSE(PatternLdp::Create(config).ok());
  config.sample_fraction = 1.5;
  EXPECT_FALSE(PatternLdp::Create(config).ok());
  config.sample_fraction = 0.1;
  config.clip = -1.0;
  EXPECT_FALSE(PatternLdp::Create(config).ok());
}

TEST(PatternLdpTest, OutputPreservesLength) {
  PatternLdpConfig config;
  auto mech = PatternLdp::Create(config);
  ASSERT_TRUE(mech.ok());
  Rng rng(121);
  std::vector<double> v = ZNormalized(std::vector<double>{
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1});
  auto out = mech->PerturbSeries(v, &rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), v.size());
}

TEST(PatternLdpTest, EmptySeriesFails) {
  auto mech = PatternLdp::Create(PatternLdpConfig{});
  ASSERT_TRUE(mech.ok());
  Rng rng(122);
  EXPECT_FALSE(mech->PerturbSeries({}, &rng).ok());
}

TEST(PatternLdpTest, HighBudgetTracksShape) {
  // With a huge budget, the perturbed series must stay close to the input.
  PatternLdpConfig config;
  config.epsilon = 500.0;
  config.sample_fraction = 0.5;
  auto mech = PatternLdp::Create(config);
  ASSERT_TRUE(mech.ok());
  Rng rng(123);
  series::GeneratorOptions gen;
  gen.num_instances = 3;
  auto dataset = series::MakeTraceDataset(gen);
  const auto& v = dataset.instances[0].values;
  auto out = mech->PerturbSeries(v, &rng);
  ASSERT_TRUE(out.ok());
  double err = 0;
  for (size_t i = 0; i < v.size(); ++i) err += std::abs((*out)[i] - v[i]);
  err /= static_cast<double>(v.size());
  // PatternLDP interpolates between sampled anchors, so even a huge budget
  // leaves residual reconstruction error; it just must be clearly small
  // compared to the z-scored signal's unit scale.
  EXPECT_LT(err, 1.0);
}

TEST(PatternLdpTest, LowBudgetDistortsShape) {
  // The paper's core observation: under user-level privacy the per-point
  // budget collapses and the shape washes out. Distortion at eps = 0.5
  // must far exceed distortion at eps = 500.
  auto distortion = [](double eps, uint64_t seed) {
    PatternLdpConfig config;
    config.epsilon = eps;
    auto mech = PatternLdp::Create(config);
    Rng rng(seed);
    series::GeneratorOptions gen;
    gen.num_instances = 3;
    gen.seed = 9;
    auto dataset = series::MakeTraceDataset(gen);
    const auto& v = dataset.instances[0].values;
    auto out = mech->PerturbSeries(v, &rng);
    double err = 0;
    for (size_t i = 0; i < v.size(); ++i) err += std::abs((*out)[i] - v[i]);
    return err / static_cast<double>(v.size());
  };
  double low = 0, high = 0;
  for (uint64_t s = 0; s < 5; ++s) {
    low += distortion(0.5, 200 + s);
    high += distortion(500.0, 300 + s);
  }
  EXPECT_GT(low, 2.0 * high);
}

TEST(PatternLdpTest, PerturbDatasetKeepsLabelsAndSizes) {
  auto mech = PatternLdp::Create(PatternLdpConfig{});
  ASSERT_TRUE(mech.ok());
  Rng rng(124);
  series::GeneratorOptions gen;
  gen.num_instances = 9;
  auto dataset = series::MakeTraceDataset(gen);
  auto out = mech->PerturbDataset(dataset, &rng);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(out->instances[i].label, dataset.instances[i].label);
    EXPECT_EQ(out->instances[i].values.size(),
              dataset.instances[i].values.size());
  }
}

TEST(PatternLdpTest, MinSamplesHonored) {
  PatternLdpConfig config;
  config.sample_fraction = 0.001;  // would sample < min_samples
  config.min_samples = 4;
  auto mech = PatternLdp::Create(config);
  ASSERT_TRUE(mech.ok());
  Rng rng(125);
  std::vector<double> v(100, 0.0);
  auto out = mech->PerturbSeries(v, &rng);
  ASSERT_TRUE(out.ok());  // just exercising the floor path
}

}  // namespace
}  // namespace privshape
