/// Failure modes and exactness of the streaming ingestion pipeline: client
/// errors mid-stream, an answer that throws mid-round, backpressure under
/// tiny queue depths, and the
/// determinism contract (byte-identical shapes AND exact
/// accepted/rejected/bytes tallies) across queue depths vs. a
/// default-depth baseline and the single-threaded core pipeline.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/privshape.h"

namespace privshape {
namespace {

using collector::AnswerFn;
using collector::ClientFleet;
using collector::CollectorMetrics;
using collector::CollectorOptions;
using collector::RoundCoordinator;
using collector::RoundOutcome;
using collector::StageSpec;
using core::MechanismConfig;

/// Same planted mixture as the core PrivShape tests: 60% "abc",
/// 30% "cba", 10% "bab".
Sequence PlantedWord(size_t user, uint64_t seed = 1) {
  Rng rng(DeriveSeed(seed, user));
  double u = rng.Uniform();
  if (u < 0.6) return {0, 1, 2};
  if (u < 0.9) return {2, 1, 0};
  return {1, 0, 1};
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
  config.seed = 7;
  return config;
}

ClientFleet PlantedFleet(size_t n, const MechanismConfig& config) {
  return ClientFleet(
      n, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed);
}

StageSpec LengthSpec(const MechanismConfig& config) {
  StageSpec spec;
  spec.kind = proto::ReportKind::kLength;
  spec.domain = static_cast<size_t>(config.ell_high - config.ell_low + 1);
  spec.epsilon = config.epsilon;
  return spec;
}

AnswerFn LengthAnswer(const MechanismConfig& config) {
  // One shared context for the whole round, as the coordinator builds it.
  auto built = proto::RoundContext::Length(config.ell_low, config.ell_high,
                                           config.epsilon);
  EXPECT_TRUE(built.ok()) << built.status();  // fail loudly on bad configs
  auto ctx = std::make_shared<proto::RoundContext>(std::move(*built));
  return [ctx](proto::ClientSession& session, size_t,
               proto::AnswerScratch& scratch, proto::ReportBatch& out) {
    return session.AnswerTo(*ctx, &scratch, &out);
  };
}

void ExpectSameResult(const core::MechanismResult& a,
                      const core::MechanismResult& b) {
  EXPECT_EQ(a.frequent_length, b.frequent_length);
  ASSERT_EQ(a.shapes.size(), b.shapes.size());
  for (size_t i = 0; i < a.shapes.size(); ++i) {
    EXPECT_EQ(a.shapes[i].shape, b.shapes[i].shape);
    EXPECT_EQ(a.shapes[i].frequency, b.shapes[i].frequency);
  }
}

// --- Failure modes ------------------------------------------------------

TEST(StreamingFailureTest, ClientErrorsMidStreamAreCountedNotIngested) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 2000;
  ClientFleet fleet = PlantedFleet(kUsers, config);
  ThreadPool pool(4);
  CollectorOptions options;
  options.num_shards = 8;
  options.batch_size = 16;
  options.queue_depth = 2;
  RoundCoordinator coordinator(config, options, &pool);

  std::vector<size_t> population(kUsers);
  std::iota(population.begin(), population.end(), size_t{0});
  AnswerFn healthy = LengthAnswer(config);
  // Every 7th user dies mid-round; its report must neither be ingested
  // nor wedge the pipeline.
  AnswerFn flaky = [&healthy](proto::ClientSession& session, size_t user,
                              proto::AnswerScratch& scratch,
                              proto::ReportBatch& out) {
    if (user % 7 == 3) {
      return Status::Internal("simulated client failure");
    }
    return healthy(session, user, scratch, out);
  };
  RoundOutcome outcome =
      coordinator.RunRound(fleet, population, LengthSpec(config), flaky);

  size_t expected_errors = 0;
  for (size_t user = 0; user < kUsers; ++user) {
    if (user % 7 == 3) ++expected_errors;
  }
  EXPECT_EQ(outcome.client_errors, expected_errors);
  EXPECT_EQ(outcome.agg.accepted(), kUsers - expected_errors);
  EXPECT_EQ(outcome.agg.rejected(), 0u);
}

TEST(StreamingFailureTest, AnswerExceptionUnwindsTheRound) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 2000;
  ClientFleet fleet = PlantedFleet(kUsers, config);
  ThreadPool pool(4);
  CollectorOptions options;
  options.num_shards = 8;
  options.batch_size = 4;
  options.queue_depth = 1;
  RoundCoordinator coordinator(config, options, &pool);

  std::vector<size_t> population(kUsers);
  std::iota(population.begin(), population.end(), size_t{0});
  StageSpec spec = LengthSpec(config);
  AnswerFn healthy = LengthAnswer(config);
  // One user's answer throws while the other stripes are still pushing
  // into depth-1 queues: the exception must unwind through RunRound with
  // every drainer closed and joined (a drainer thread left joinable
  // terminates the process) ...
  AnswerFn exploding = [&healthy](proto::ClientSession& session, size_t user,
                                  proto::AnswerScratch& scratch,
                                  proto::ReportBatch& out) -> Status {
    if (user == kUsers / 2) throw std::runtime_error("answer exploded");
    return healthy(session, user, scratch, out);
  };
  EXPECT_THROW(coordinator.RunRound(fleet, population, spec, exploding),
               std::runtime_error);

  // ... and the same coordinator serves the next round in full.
  RoundOutcome outcome =
      coordinator.RunRound(fleet, population, spec, healthy);
  EXPECT_EQ(outcome.agg.accepted(), kUsers);
  EXPECT_EQ(outcome.agg.rejected(), 0u);
  EXPECT_EQ(outcome.client_errors, 0u);
}

TEST(StreamingFailureTest, BackpressureNeverDropsOrDuplicatesReports) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 3000;
  ClientFleet fleet = PlantedFleet(kUsers, config);
  std::vector<size_t> population(kUsers);
  std::iota(population.begin(), population.end(), size_t{0});
  StageSpec spec = LengthSpec(config);
  AnswerFn answer = LengthAnswer(config);

  // Reference: few shards, unbounded queues — no Push ever blocks.
  CollectorOptions roomy;
  roomy.num_shards = 4;
  roomy.queue_depth = 0;
  ThreadPool pool(4);
  RoundOutcome expected =
      RoundCoordinator(config, roomy, &pool)
          .RunRound(fleet, population, spec, answer);

  // Hostile config: many producers per drainer queue, depth-1 queues,
  // batch size 1 — every Push can block.
  CollectorOptions hostile;
  hostile.num_shards = 32;
  hostile.batch_size = 1;
  hostile.queue_depth = 1;
  RoundOutcome streamed =
      RoundCoordinator(config, hostile, &pool)
          .RunRound(fleet, population, spec, answer);

  EXPECT_EQ(streamed.agg.accepted(), expected.agg.accepted());
  EXPECT_EQ(streamed.agg.rejected(), expected.agg.rejected());
  EXPECT_EQ(streamed.agg.bytes_ingested(), expected.agg.bytes_ingested());
  EXPECT_EQ(streamed.client_errors, expected.client_errors);
  // Not just totals: the merged per-value counts are identical.
  EXPECT_EQ(streamed.agg.MergedLevel(0).raw_counts(),
            expected.agg.MergedLevel(0).raw_counts());
}

// --- Determinism contract: streaming ------------------------------------

TEST(StreamingDeterminismTest, QueueDepthsAreExact) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 3000;
  ClientFleet fleet = PlantedFleet(kUsers, config);

  core::PrivShape reference(config);
  auto expected = reference.Run(fleet.MaterializeWords());
  ASSERT_TRUE(expected.ok()) << expected.status();

  ThreadPool pool(4);
  // One default-depth run is the tallies baseline every run must hit.
  CollectorOptions baseline_options;
  baseline_options.num_shards = 8;
  CollectorMetrics baseline_metrics;
  auto baseline = RoundCoordinator(config, baseline_options, &pool)
                      .Collect(fleet, &baseline_metrics);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ExpectSameResult(*expected, *baseline);

  // Queue depths {1, 8, 0 = unbounded}.
  for (size_t depth : {size_t{1}, size_t{8}, size_t{0}}) {
    CollectorOptions options;
    options.num_shards = 8;
    options.queue_depth = depth;
    options.batch_size = 64;
    CollectorMetrics metrics;
    auto got =
        RoundCoordinator(config, options, &pool).Collect(fleet, &metrics);
    ASSERT_TRUE(got.ok()) << got.status() << " depth=" << depth;
    ExpectSameResult(*expected, *got);

    // Exact round-by-round tallies vs. the baseline: same stages, same
    // accepted/rejected/bytes per stage — queue depth changes
    // scheduling, never counts.
    ASSERT_EQ(metrics.rounds.size(), baseline_metrics.rounds.size());
    for (size_t r = 0; r < metrics.rounds.size(); ++r) {
      const auto& got_round = metrics.rounds[r];
      const auto& want_round = baseline_metrics.rounds[r];
      EXPECT_EQ(got_round.stage, want_round.stage);
      EXPECT_EQ(got_round.users, want_round.users) << got_round.stage;
      EXPECT_EQ(got_round.accepted, want_round.accepted) << got_round.stage;
      EXPECT_EQ(got_round.rejected, want_round.rejected) << got_round.stage;
      EXPECT_EQ(got_round.client_errors, want_round.client_errors)
          << got_round.stage;
      EXPECT_EQ(got_round.bytes_up, want_round.bytes_up) << got_round.stage;
    }
    EXPECT_EQ(metrics.ingest, "streaming");
  }
}

TEST(StreamingDeterminismTest, InlineExecutionStillStreams) {
  // pool == nullptr: producers run on the calling thread, drainers are
  // still real threads — results stay identical.
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(1500, config);
  CollectorOptions options;
  options.num_shards = 4;
  options.queue_depth = 1;
  auto inline_run =
      RoundCoordinator(config, options, nullptr).Collect(fleet);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  ThreadPool pool(8);
  auto pooled = RoundCoordinator(config, options, &pool).Collect(fleet);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  ExpectSameResult(*inline_run, *pooled);
}

}  // namespace
}  // namespace privshape
