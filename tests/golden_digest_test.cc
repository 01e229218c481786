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

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/thread_pool.h"
#include "core/privshape.h"

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
};

std::string CaseName(const testing::TestParamInfo<GoldenCase>& info) {
  return std::string(info.param.dataset) + "_seed" +
         std::to_string(info.param.seed) +
         (info.param.labeled ? "_labeled" : "_unlabeled");
}

class GoldenDigestTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigestTest, CollectorAndCoreMatchTheCommittedDigest) {
  const GoldenCase& golden = GetParam();
  auto base = collector::GeneratedDatasetConfig(golden.dataset);
  ASSERT_TRUE(base.ok()) << base.status();
  core::MechanismConfig config = *base;
  config.epsilon = 4.0;
  config.seed = golden.seed;

  // Materialize the generated words once (in parallel: synthesis is the
  // expensive part) and serve both runs from the same list.
  auto word_fn = collector::GeneratedWordSource(golden.dataset, golden.seed);
  ASSERT_TRUE(word_fn.ok()) << word_fn.status();
  ThreadPool pool(2);
  std::vector<Sequence> words(kUsers);
  pool.ParallelFor(kUsers,
                   [&](size_t user) { words[user] = (*word_fn)(user); });
  std::vector<int> labels;
  if (golden.labeled) {
    auto classes = collector::GeneratedNumClasses(golden.dataset);
    auto label_fn = collector::GeneratedLabelSource(golden.dataset);
    ASSERT_TRUE(classes.ok() && label_fn.ok());
    config.num_classes = *classes;
    for (size_t user = 0; user < kUsers; ++user) {
      labels.push_back((*label_fn)(user));
    }
  }
  collector::ClientFleet fleet = collector::ClientFleet::FromWords(
      words, kUsers, config.metric, config.seed, labels);

  // Every round's merged raw tallies, level bucket by level bucket.
  std::vector<std::vector<size_t>> tallies;
  collector::RoundCoordinator coordinator(config, {}, &pool);
  collector::RoundRunner recording =
      [&](const std::vector<size_t>& population,
          const collector::StageSpec& spec, const std::string&,
          const collector::AnswerFn& answer) {
        collector::RoundOutcome outcome =
            coordinator.RunRound(fleet, population, spec, answer);
        for (size_t bucket = 0; bucket < spec.num_levels; ++bucket) {
          tallies.push_back(outcome.agg.MergedLevel(bucket).raw_counts());
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

INSTANTIATE_TEST_SUITE_P(
    Goldens, GoldenDigestTest,
    testing::Values(GoldenCase{"trace", 1, false, 0x16462986191fd10cULL},
                    GoldenCase{"trace", 2, false, 0xcec0454ee1552b37ULL},
                    GoldenCase{"trace", 3, false, 0x3167414fa6f4a59fULL},
                    GoldenCase{"trace", 1, true, 0x811a2c826e349f55ULL},
                    GoldenCase{"trace", 2, true, 0x4043db25c100c937ULL},
                    GoldenCase{"trace", 3, true, 0x598162729c9c2492ULL},
                    GoldenCase{"symbols", 1, false, 0x30998d4a870f0859ULL},
                    GoldenCase{"symbols", 2, false, 0x7531c22bb415ce93ULL},
                    GoldenCase{"symbols", 3, false, 0xc516a0b8e81f1871ULL},
                    GoldenCase{"symbols", 1, true, 0xa944fbc42ed7c785ULL},
                    GoldenCase{"symbols", 2, true, 0x41c990cd2cae41a3ULL},
                    GoldenCase{"symbols", 3, true, 0xb55b558c277ec602ULL}),
    CaseName);

}  // namespace
}  // namespace privshape
