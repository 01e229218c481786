/// Golden digests of the determinism contract. Each case runs the whole
/// protocol over a generated fleet through the collector and hashes, with
/// FNV-1a-64, the frequent length, every output shape (its symbols, then
/// its label, in output order) and every round's raw integer report
/// tallies. The constants below were computed once and are never edited:
/// a change that moves one of them changed the bytes the protocol
/// produces. Only integers are hashed — no double bit patterns — so the
/// digests do not depend on libm's last bit, and they hold in the SIMD and
/// the scalar (-DPRIVSHAPE_SIMD=OFF) builds alike.
///
/// The single-threaded core::PrivShape::Run must reach the same shapes on
/// the same words, so its shape digest is checked against the collector's.
///
/// A second digest per case pins what the paper figures print besides
/// PrivShape's shapes: the baseline mechanism (Algorithm 1: frequent
/// length, shapes and their integer selection counts), then Def. 4's
/// nearest-shape matching of every word onto PrivShape's shapes — the
/// cluster indices of eval::AssignToNearestShape for unlabeled cases, the
/// labels of NearestShapeClassifier::ClassifyBatch for labeled ones.
///
/// A third digest pins core::PemMiner, the prefix-extension comparator
/// bench_ablation_design runs, on the unlabeled Trace fleets: its shapes,
/// then each shape's frequency rounded to an integer. A PEM frequency is
/// a GRR-debiased tally (c - n*q) / (p - q), and p - q < 1 spreads
/// consecutive tallies more than 1 apart, so the rounded value keeps the
/// integer tally and drops libm's last bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/thread_pool.h"
#include "core/baseline.h"
#include "core/pem.h"
#include "core/privshape.h"
#include "eval/shape_matching.h"

namespace privshape {
namespace {

constexpr size_t kUsers = 20000;

/// FNV-1a over the little-endian bytes of 64-bit integers.
class Fnv1a64 {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The frequent length, then each shape's symbols and label, in order.
void HashShapes(const core::MechanismResult& result, Fnv1a64* hash) {
  hash->Add(static_cast<uint64_t>(result.frequent_length));
  hash->Add(result.shapes.size());
  for (const core::ShapeCandidate& shape : result.shapes) {
    hash->Add(shape.shape.size());
    for (Symbol symbol : shape.shape) hash->Add(static_cast<uint64_t>(symbol));
    hash->Add(static_cast<uint64_t>(static_cast<int64_t>(shape.label)));
  }
}

struct GoldenCase {
  const char* dataset;
  uint64_t seed;
  bool labeled;
  uint64_t digest;  ///< shapes, then every round's raw tallies
  uint64_t matching_digest;  ///< baseline, then nearest-shape matches
};

/// One case's generated fleet: the paper's config at epsilon = 4, every
/// user's word and, for labeled cases, every user's class.
struct GoldenFleet {
  core::MechanismConfig config;
  std::vector<Sequence> words;
  std::vector<int> labels;
};

void MakeGoldenFleet(const GoldenCase& golden, ThreadPool* pool,
                     GoldenFleet* fleet) {
  auto base = collector::GeneratedDatasetConfig(golden.dataset);
  ASSERT_TRUE(base.ok()) << base.status();
  fleet->config = *base;
  fleet->config.epsilon = 4.0;
  fleet->config.seed = golden.seed;

  // Synthesis is the expensive part, so materialize the words in parallel.
  auto word_fn = collector::GeneratedWordSource(golden.dataset, golden.seed);
  ASSERT_TRUE(word_fn.ok()) << word_fn.status();
  fleet->words.assign(kUsers, Sequence());
  pool->ParallelFor(
      kUsers, [&](size_t user) { fleet->words[user] = (*word_fn)(user); });
  if (golden.labeled) {
    auto classes = collector::GeneratedNumClasses(golden.dataset);
    auto label_fn = collector::GeneratedLabelSource(golden.dataset);
    ASSERT_TRUE(classes.ok() && label_fn.ok());
    fleet->config.num_classes = *classes;
    for (size_t user = 0; user < kUsers; ++user) {
      fleet->labels.push_back((*label_fn)(user));
    }
  }
}

std::string CaseName(const testing::TestParamInfo<GoldenCase>& info) {
  return std::string(info.param.dataset) + "_seed" +
         std::to_string(info.param.seed) +
         (info.param.labeled ? "_labeled" : "_unlabeled");
}

class GoldenDigestTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigestTest, CollectorAndCoreMatchTheCommittedDigest) {
  const GoldenCase& golden = GetParam();
  // Both runs are served from the same materialized words.
  ThreadPool pool(2);
  GoldenFleet generated;
  ASSERT_NO_FATAL_FAILURE(MakeGoldenFleet(golden, &pool, &generated));
  const core::MechanismConfig& config = generated.config;
  const std::vector<Sequence>& words = generated.words;
  const std::vector<int>& labels = generated.labels;
  collector::ClientFleet fleet = collector::ClientFleet::FromWords(
      words, kUsers, config.metric, config.seed, labels);

  // Every round's summed raw tallies, level bucket by level bucket.
  std::vector<std::vector<size_t>> tallies;
  collector::RoundCoordinator coordinator(config, {}, &pool);
  collector::RoundRunner recording =
      [&](const std::vector<size_t>& population,
          const collector::StageSpec& spec, const std::string&,
          const collector::AnswerFn& answer) {
        collector::RoundOutcome outcome =
            coordinator.RunRound(fleet, population, spec, answer);
        for (size_t bucket = 0; bucket < spec.num_levels; ++bucket) {
          tallies.push_back(outcome.agg.Tally(bucket));
        }
        return outcome;
      };
  auto served = collector::DriveProtocol(config, kUsers, recording);
  ASSERT_TRUE(served.ok()) << served.status();

  Fnv1a64 shapes;
  HashShapes(*served, &shapes);
  Fnv1a64 digest = shapes;
  digest.Add(tallies.size());
  for (const std::vector<size_t>& counts : tallies) {
    digest.Add(counts.size());
    for (size_t count : counts) digest.Add(count);
  }
  EXPECT_EQ(digest.value(), golden.digest)
      << "computed 0x" << std::hex << digest.value();

  auto reference =
      core::PrivShape(config).Run(words, golden.labeled ? &labels : nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status();
  Fnv1a64 core_shapes;
  HashShapes(*reference, &core_shapes);
  EXPECT_EQ(core_shapes.value(), shapes.value());
}

TEST_P(GoldenDigestTest, BaselineAndNearestShapeMatchTheCommittedDigest) {
  const GoldenCase& golden = GetParam();
  ThreadPool pool(2);
  GoldenFleet generated;
  ASSERT_NO_FATAL_FAILURE(MakeGoldenFleet(golden, &pool, &generated));
  const std::vector<Sequence>& words = generated.words;

  auto baseline = core::BaselineMechanism(generated.config).Run(words);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  Fnv1a64 digest;
  HashShapes(*baseline, &digest);
  // Algorithm 1's frequencies are raw EM selection counts: integers.
  for (const core::ShapeCandidate& shape : baseline->shapes) {
    digest.Add(static_cast<uint64_t>(shape.frequency));
  }

  auto privshape = core::PrivShape(generated.config)
                       .Run(words, golden.labeled ? &generated.labels
                                                  : nullptr);
  ASSERT_TRUE(privshape.ok()) << privshape.status();
  std::vector<int> matches;
  if (golden.labeled) {
    std::vector<eval::LabeledShape> labeled;
    for (const core::ShapeCandidate& shape : privshape->shapes) {
      labeled.push_back({shape.shape, shape.label});
    }
    auto classifier = eval::NearestShapeClassifier::Create(
        std::move(labeled), generated.config.metric);
    ASSERT_TRUE(classifier.ok()) << classifier.status();
    matches = classifier->ClassifyBatch(words);
  } else {
    std::vector<Sequence> shapes;
    for (const core::ShapeCandidate& shape : privshape->shapes) {
      shapes.push_back(shape.shape);
    }
    auto assigned =
        eval::AssignToNearestShape(words, shapes, generated.config.metric);
    ASSERT_TRUE(assigned.ok()) << assigned.status();
    matches = std::move(*assigned);
  }
  digest.Add(matches.size());
  for (int match : matches) {
    digest.Add(static_cast<uint64_t>(static_cast<int64_t>(match)));
  }
  EXPECT_EQ(digest.value(), golden.matching_digest)
      << "computed 0x" << std::hex << digest.value();
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, GoldenDigestTest,
    testing::Values(GoldenCase{"trace", 1, false, 0x16462986191fd10cULL,
                               0xfabb78c5542d2f9cULL},
                    GoldenCase{"trace", 2, false, 0xcec0454ee1552b37ULL,
                               0xe99fc8175dd489deULL},
                    GoldenCase{"trace", 3, false, 0x3167414fa6f4a59fULL,
                               0xfb4edfc74f2c375dULL},
                    GoldenCase{"trace", 1, true, 0x811a2c826e349f55ULL,
                               0x807fd296b6c5583eULL},
                    GoldenCase{"trace", 2, true, 0x4043db25c100c937ULL,
                               0x53204b1f085e809dULL},
                    GoldenCase{"trace", 3, true, 0x598162729c9c2492ULL,
                               0x6fa526bdf3fc449eULL},
                    GoldenCase{"symbols", 1, false, 0x30998d4a870f0859ULL,
                               0x8da1a695083b672cULL},
                    GoldenCase{"symbols", 2, false, 0x7531c22bb415ce93ULL,
                               0xf33e8ae01cfdf2ceULL},
                    GoldenCase{"symbols", 3, false, 0xc516a0b8e81f1871ULL,
                               0x5c4e7db45fffaa25ULL},
                    GoldenCase{"symbols", 1, true, 0xa944fbc42ed7c785ULL,
                               0xa0d283baeeeb7fccULL},
                    GoldenCase{"symbols", 2, true, 0x41c990cd2cae41a3ULL,
                               0x7e7df7bd9ca9eb4eULL},
                    GoldenCase{"symbols", 3, true, 0xb55b558c277ec602ULL,
                               0x8e1d97bc75ea2ce7ULL}),
    CaseName);

TEST(PemGoldenDigestTest, PemMinerMatchesTheCommittedDigest) {
  // The unlabeled Trace fleets' seeds and each PEM run's digest.
  const std::pair<uint64_t, uint64_t> kCases[] = {
      {1, 0x8120fa686f1eef4cULL},
      {2, 0xbc9351ebc97e376aULL},
      {3, 0xe30a50951d3125caULL}};
  ThreadPool pool(2);
  for (const auto& [seed, want] : kCases) {
    GoldenFleet generated;
    ASSERT_NO_FATAL_FAILURE(
        MakeGoldenFleet({"trace", seed, false, 0, 0}, &pool, &generated));
    // bench_ablation_design's PEM config at epsilon = 4.
    core::PemConfig config;
    config.epsilon = 4.0;
    config.t = 4;
    config.k = 3;
    config.keep = 9;
    config.gamma = 2;
    config.ell = 8;
    config.seed = seed;
    auto result = core::PemMiner(config).Run(generated.words);
    ASSERT_TRUE(result.ok()) << result.status();
    Fnv1a64 digest;
    HashShapes(*result, &digest);
    for (const core::ShapeCandidate& shape : result->shapes) {
      digest.Add(static_cast<uint64_t>(std::llround(shape.frequency)));
    }
    EXPECT_EQ(digest.value(), want)
        << "seed " << seed << " computed 0x" << std::hex << digest.value();
  }
}

}  // namespace
}  // namespace privshape
