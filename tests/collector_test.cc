#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "collector/sharded_aggregator.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/shutdown.h"
#include "common/thread_pool.h"
#include "core/privshape.h"
#include "ldp/estimator_utils.h"
#include "protocol/messages.h"
#include "protocol/session.h"
#include "telemetry/telemetry.h"

namespace privshape {
namespace {

using collector::ClientFleet;
using collector::CollectorMetrics;
using collector::CollectorOptions;
using collector::RoundCoordinator;
using collector::ShardedAggregator;
using collector::StageSpec;
using core::MechanismConfig;
using proto::Report;
using proto::ReportBatch;
using proto::ReportKind;

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

void ExpectSameResult(const core::MechanismResult& a,
                      const core::MechanismResult& b) {
  EXPECT_EQ(a.frequent_length, b.frequent_length);
  ASSERT_EQ(a.shapes.size(), b.shapes.size());
  for (size_t i = 0; i < a.shapes.size(); ++i) {
    EXPECT_EQ(a.shapes[i].shape, b.shapes[i].shape);
    // Bit-exact: both paths share per-user seeds, integer aggregation,
    // and the debias formula.
    EXPECT_EQ(a.shapes[i].frequency, b.shapes[i].frequency);
  }
  ASSERT_EQ(a.refined_pool.size(), b.refined_pool.size());
  for (size_t i = 0; i < a.refined_pool.size(); ++i) {
    EXPECT_EQ(a.refined_pool[i].shape, b.refined_pool[i].shape);
    EXPECT_EQ(a.refined_pool[i].frequency, b.refined_pool[i].frequency);
  }
  EXPECT_EQ(a.accountant.charges(), b.accountant.charges());
}

// --- The determinism contract -------------------------------------------

TEST(CollectorDeterminismTest, MatchesCorePipelineForAnyShardCount) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 3000;
  ClientFleet fleet = PlantedFleet(kUsers, config);

  core::PrivShape reference(config);
  auto expected = reference.Run(fleet.MaterializeWords());
  ASSERT_TRUE(expected.ok()) << expected.status();

  ThreadPool pool(4);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    CollectorOptions options;
    options.num_shards = shards;
    RoundCoordinator coordinator(config, options, &pool);
    auto got = coordinator.Collect(fleet);
    ASSERT_TRUE(got.ok()) << got.status() << " shards=" << shards;
    ExpectSameResult(*expected, *got);
  }
}

TEST(CollectorDeterminismTest, IndependentOfThreadCountAndBatchSize) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(2000, config);

  ThreadPool one(1);
  CollectorOptions options;
  options.num_shards = 8;
  options.batch_size = 1;
  auto a = RoundCoordinator(config, options, &one).Collect(fleet);
  ASSERT_TRUE(a.ok()) << a.status();

  ThreadPool many(8);
  options.batch_size = 1024;
  auto b = RoundCoordinator(config, options, &many).Collect(fleet);
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectSameResult(*a, *b);

  // No pool at all (inline execution) is also identical.
  auto c = RoundCoordinator(config, options, nullptr).Collect(fleet);
  ASSERT_TRUE(c.ok()) << c.status();
  ExpectSameResult(*a, *c);
}

TEST(CollectorDeterminismTest, RecoversPlantedShape) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(6000, config);
  ThreadPool pool(2);
  RoundCoordinator coordinator(config, {}, &pool);
  auto result = coordinator.Collect(fleet);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->frequent_length, 3);
  ASSERT_GE(result->shapes.size(), 1u);
  EXPECT_EQ(SequenceToString(result->shapes[0].shape), "abc");
}

// --- Coordinator behavior -----------------------------------------------

TEST(RoundCoordinatorTest, EmptyFleetFails) {
  ThreadPool pool(1);
  RoundCoordinator coordinator(TestConfig(), {}, &pool);
  ClientFleet fleet(0, [](size_t) { return Sequence{0}; },
                    dist::Metric::kSed, 1);
  EXPECT_FALSE(coordinator.Collect(fleet).ok());
}

TEST(RoundCoordinatorTest, ClassificationRequiresLabeledFleet) {
  MechanismConfig config = TestConfig();
  config.num_classes = 2;
  ThreadPool pool(1);
  RoundCoordinator coordinator(config, {}, &pool);
  ClientFleet fleet = PlantedFleet(100, config);  // no LabelFn
  auto result = coordinator.Collect(fleet);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RoundCoordinatorTest, MetricsCoverEveryRound) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(2000, config);
  ThreadPool pool(2);
  RoundCoordinator coordinator(config, {}, &pool);
  CollectorMetrics metrics;
  auto result = coordinator.Collect(fleet, &metrics);
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_GE(metrics.rounds.size(), 3u);
  EXPECT_EQ(metrics.rounds.front().stage, "Pa");
  EXPECT_EQ(metrics.rounds.back().stage, "Pd");
  size_t users_covered = 0;
  for (const auto& round : metrics.rounds) {
    EXPECT_EQ(round.rejected, 0u) << round.stage;
    EXPECT_EQ(round.client_errors, 0u) << round.stage;
    EXPECT_EQ(round.accepted, round.users) << round.stage;
    EXPECT_GT(round.bytes_up, 0u) << round.stage;
    // Every stage broadcasts a real encoded request — P_a and P_b used to
    // report bytes_down = 0 because theirs were never encoded.
    EXPECT_GT(round.bytes_down, 0u) << round.stage;
    EXPECT_GE(round.bytes_down, round.users) << round.stage;
    users_covered += round.users;
  }
  // Every user answers exactly one round (parallel composition).
  EXPECT_EQ(users_covered, metrics.num_users);
  EXPECT_EQ(metrics.TotalReports(), metrics.num_users);
  EXPECT_EQ(metrics.TotalRejected(), 0u);

  std::string json = metrics.ToJson().Dump(2);
  EXPECT_NE(json.find("\"stage\": \"Pa\""), std::string::npos);
  // Throughput is labeled honestly: ingest capacity vs useful work.
  EXPECT_NE(json.find("ingested_per_sec"), std::string::npos);
  EXPECT_NE(json.find("accepted_per_sec"), std::string::npos);
  EXPECT_EQ(json.find("reports_per_sec"), std::string::npos);
}

TEST(RoundCoordinatorTest, RegistryFiguresAreDerivedFromTheRoundRecords) {
  // PublishRound is the only writer of the collector_* figures, so over
  // one Collect each moves by exactly its RoundStats total.
  const char* counters[] = {
      "collector_rounds_total",           "collector_reports_accepted_total",
      "collector_reports_rejected_total", "collector_client_errors_total",
      "collector_bytes_up_total",         "collector_bytes_down_total"};
  telemetry::Registry& reg = telemetry::Registry::Default();
  telemetry::Histogram* ingest = reg.GetHistogram("collector_ingest_batch_ns");
  auto read = [&] {
    std::vector<uint64_t> values;
    for (const char* name : counters) {
      values.push_back(reg.GetCounter(name)->Value());
    }
    values.push_back(ingest->count());
    return values;
  };

  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(2000, config);
  ThreadPool pool(2);
  RoundCoordinator coordinator(config, {}, &pool);
  CollectorMetrics metrics;
  std::vector<uint64_t> before = read();
  auto result = coordinator.Collect(fleet, &metrics);
  std::vector<uint64_t> after = read();
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<uint64_t> totals(7, 0);
  totals[0] = metrics.rounds.size();
  for (const auto& round : metrics.rounds) {
    totals[1] += round.accepted;
    totals[2] += round.rejected;
    totals[3] += round.client_errors;
    totals[4] += round.bytes_up;
    totals[5] += round.bytes_down;
    totals[6] += round.ingest_batches;
  }
  EXPECT_GT(totals[6], 0u);
  for (size_t i = 0; i < totals.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], totals[i])
        << (i < 6 ? counters[i] : "collector_ingest_batch_ns count");
  }
}

TEST(MechanismConfigFromArgsTest, OverridesTheDatasetDefaults) {
  const char* argv[] = {"prog", "--epsilon", "2.5", "--seed", "9",
                        "--k",  "4",         "--c", "2",      "--num-classes",
                        "6"};
  CliArgs args(11, const_cast<char**>(argv));
  auto config = collector::MechanismConfigFromArgs(args, "symbols");
  ASSERT_TRUE(config.ok()) << config.status();
  auto defaults = collector::GeneratedDatasetConfig("symbols");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(config->t, defaults->t);
  EXPECT_EQ(config->ell_high, defaults->ell_high);
  EXPECT_EQ(config->metric, defaults->metric);
  EXPECT_EQ(config->epsilon, 2.5);
  EXPECT_EQ(config->seed, 9u);
  EXPECT_EQ(config->k, 4);
  EXPECT_EQ(config->c, 2);
  EXPECT_EQ(config->num_classes, 6);
  EXPECT_TRUE(args.CheckAllRead().ok());

  const char* none[] = {"prog"};
  CliArgs empty(1, const_cast<char**>(none));
  auto trace = collector::MechanismConfigFromArgs(empty, "trace");
  auto trace_defaults = collector::GeneratedDatasetConfig("trace");
  ASSERT_TRUE(trace.ok() && trace_defaults.ok());
  EXPECT_EQ(trace->epsilon, trace_defaults->epsilon);
  EXPECT_EQ(trace->seed, trace_defaults->seed);
  EXPECT_EQ(trace->k, trace_defaults->k);
  EXPECT_EQ(trace->num_classes, 0);
}

TEST(MechanismConfigFromArgsTest, EveryErrorNamesItsFlag) {
  for (const char* flag :
       {"--epsilon", "--seed", "--k", "--c", "--num-classes"}) {
    const char* argv[] = {"prog", flag, "2x"};
    CliArgs args(3, const_cast<char**>(argv));
    auto config = collector::MechanismConfigFromArgs(args, "trace");
    ASSERT_FALSE(config.ok()) << flag;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(config.status().message().find(flag), std::string::npos)
        << config.status();
  }
  const char* negative[] = {"prog", "--num-classes", "-1"};
  CliArgs args(3, const_cast<char**>(negative));
  auto config = collector::MechanismConfigFromArgs(args, "trace");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("--num-classes"),
            std::string::npos);
  auto unknown = collector::MechanismConfigFromArgs(args, "ecg");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("--dataset"), std::string::npos);
}

// --- ClientFleet --------------------------------------------------------

TEST(ClientFleetTest, SessionsAreReproducible) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(50, config);
  auto ctx = proto::RoundContext::Length(1, 6, 4.0);
  ASSERT_TRUE(ctx.ok());
  for (size_t user : {size_t{0}, size_t{7}, size_t{49}}) {
    Report a, b;
    ASSERT_TRUE(fleet.MakeSession(user).Answer(*ctx, nullptr, &a).ok());
    ASSERT_TRUE(fleet.MakeSession(user).Answer(*ctx, nullptr, &b).ok());
    EXPECT_EQ(a, b) << "user " << user;
  }
}

/// Answers `users` through ClientFleet::AnswerRound in consecutive calls
/// whose lengths cycle through full and partial blocks and whose batch
/// sizes cycle through 1, 3 and more than any call's count. Every emitted
/// report is appended to `*emitted` in order; each call must answer
/// every user, emitting full batches and at most one short last batch.
template <typename Answer>
void AnswerInCalls(const ClientFleet& fleet, const std::vector<size_t>& users,
                   const proto::RoundContext& ctx, const Answer& answer,
                   ReportBatch* emitted) {
  const size_t lengths[] = {ClientFleet::kSessionBlock, 5, 1,
                            2 * ClientFleet::kSessionBlock + 3, 3};
  const size_t batch_sizes[] = {1, 3, 1000};
  size_t first = 0;
  for (size_t call = 0; first < users.size(); ++call) {
    const size_t count = std::min(lengths[call % 5], users.size() - first);
    const size_t batch_size = batch_sizes[call % 3];
    size_t reports = 0;
    auto failed = fleet.AnswerRound(
        &users[first], count, ctx.kind(), ctx.domain(), batch_size, answer,
        [&](ReportBatch& batch) {
          EXPECT_TRUE(batch.size() == batch_size ||
                      (batch.size() < batch_size &&
                       reports + batch.size() == count))
              << "batch of " << batch.size() << " at report " << reports;
          for (size_t i = 0; i < batch.size(); ++i) {
            emitted->AppendEncoded(batch.view(i));
          }
          reports += batch.size();
          return Status::Ok();
        });
    ASSERT_TRUE(failed.ok()) << failed.status().ToString();
    EXPECT_EQ(*failed, 0u);
    EXPECT_EQ(reports, count);
    first += count;
  }
}

TEST(ClientFleetTest, BlockSessionsAnswerLikeSingleSessions) {
  // Every round kind, P_e both within (72 cells) and past (180 cells) the
  // 156-output lazy prefix, full and partial blocks: the sessions
  // AnswerRound builds and seeds a block at a time answer exactly as
  // MakeSession's do, in the callers' order.
  MechanismConfig config = TestConfig();
  std::vector<Sequence> words = {{0, 1, 2}, {2, 1, 0}, {1, 0, 1}, {0, 2}};
  ClientFleet fleet = ClientFleet::FromWords(words, 40, config.metric,
                                             config.seed, {0, 1, 2, 1});
  auto candidates = [](size_t n) {
    std::vector<Sequence> out;
    for (size_t i = 0; i < n; ++i) {
      out.push_back({static_cast<Symbol>(i % 3),
                     static_cast<Symbol>((i / 3) % 3),
                     static_cast<Symbol>(i / 9)});
    }
    return out;
  };
  std::vector<proto::RoundContext> contexts;
  auto add = [&contexts](Result<proto::RoundContext> ctx) {
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    contexts.push_back(std::move(*ctx));
  };
  add(proto::RoundContext::Length(1, 6, 4.0));
  add(proto::RoundContext::Length(3, 3, 4.0));  // one value: no draws
  add(proto::RoundContext::SubShape(3, 4, 4.0, false));
  add(proto::RoundContext::Selection({1, 4.0, candidates(9)}, config.metric));
  add(proto::RoundContext::Refinement({0, 4.0, candidates(6)},
                                      config.metric));
  add(proto::RoundContext::ClassRefinement({4.0, 3, candidates(24)},
                                           config.metric));
  add(proto::RoundContext::ClassRefinement({4.0, 3, candidates(60)},
                                           config.metric));
  std::vector<size_t> users(fleet.num_users());
  for (size_t u = 0; u < users.size(); ++u) users[u] = (u * 7) % users.size();
  for (const proto::RoundContext& ctx : contexts) {
    std::vector<size_t> seen;
    ReportBatch emitted;
    AnswerInCalls(
        fleet, users, ctx,
        [&](proto::ClientSession& session, size_t user,
            proto::AnswerScratch&, ReportBatch& batch) {
          seen.push_back(user);
          Report got, want;
          Status answered = session.Answer(ctx, nullptr, &got);
          if (!answered.ok()) return answered;
          EXPECT_TRUE(
              fleet.MakeSession(user).Answer(ctx, nullptr, &want).ok());
          EXPECT_EQ(got, want) << "kind " << static_cast<int>(ctx.kind())
                               << ", domain " << ctx.domain() << ", user "
                               << user;
          batch.Append(got);
          return Status::Ok();
        },
        &emitted);
    EXPECT_EQ(seen, users);
    EXPECT_EQ(emitted.size(), users.size());
  }
}

TEST(ClientFleetTest, BlockSessionsWriteTheBytesOfLoneSessions) {
  // All five round kinds, DTW and SED, words of mixed lengths (the empty
  // word, words shorter and longer than every candidate) and a trie-shaped
  // candidate list with a duplicate: AnswerRound's sessions, matched a
  // block at a time on the block's first answer, encode byte for byte the
  // reports lone MakeSession sessions encode, full and partial blocks and
  // every batch size alike.
  const std::vector<Sequence> words = {
      {},     {0},       {0, 1, 2, 0, 1, 2, 0, 1}, {2, 1},
      {1, 0, 1, 2, 0, 2, 1, 0, 2, 1, 0, 1, 2},      {0, 2, 0},
      {1, 2}, {2, 0, 1, 2}, {0, 1},
  };
  const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  std::vector<Sequence> frontier;
  for (const Sequence& parent : {Sequence{0, 1}, Sequence{1, 2},
                                 Sequence{2, 0}, Sequence{0, 2}}) {
    for (Symbol next : {0, 1, 2}) {
      if (next == parent.back()) continue;
      Sequence child = parent;
      child.push_back(next);
      frontier.push_back(child);
    }
  }
  frontier.push_back(frontier[3]);
  for (dist::Metric metric : {dist::Metric::kDtw, dist::Metric::kSed}) {
    ClientFleet fleet = ClientFleet::FromWords(words, 3 * 17 + 4, metric,
                                               11, labels);
    std::vector<proto::RoundContext> contexts;
    auto add = [&contexts](Result<proto::RoundContext> ctx) {
      ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
      contexts.push_back(std::move(*ctx));
    };
    add(proto::RoundContext::Length(1, 6, 4.0));
    add(proto::RoundContext::SubShape(3, 4, 4.0, false));
    add(proto::RoundContext::Selection({2, 4.0, frontier}, metric));
    add(proto::RoundContext::Refinement({0, 4.0, frontier}, metric));
    add(proto::RoundContext::ClassRefinement({4.0, 3, frontier}, metric));
    std::vector<size_t> users(fleet.num_users());
    for (size_t u = 0; u < users.size(); ++u) {
      users[u] = (u * 13) % users.size();
    }
    for (const proto::RoundContext& ctx : contexts) {
      proto::AnswerScratch lone_scratch;
      ReportBatch from_blocks, from_lone;
      AnswerInCalls(
          fleet, users, ctx,
          [&ctx](proto::ClientSession& session, size_t,
                 proto::AnswerScratch& scratch, ReportBatch& batch) {
            return session.AnswerTo(ctx, &scratch, &batch);
          },
          &from_blocks);
      for (size_t user : users) {
        ASSERT_TRUE(fleet.MakeSession(user)
                        .AnswerTo(ctx, &lone_scratch, &from_lone)
                        .ok());
      }
      ASSERT_EQ(from_blocks.size(), from_lone.size());
      for (size_t i = 0; i < from_lone.size(); ++i) {
        EXPECT_EQ(from_blocks.view(i), from_lone.view(i))
            << dist::MetricName(metric) << ", kind "
            << static_cast<int>(ctx.kind()) << ", user " << users[i];
      }
    }
  }
}

/// The length round every AnswerRound test below serves; each user
/// answers it with one report.
proto::RoundContext LengthRound() {
  return proto::RoundContext::Length(1, 6, 4.0).value();
}

TEST(ClientFleetTest, AnswerRoundEndsOnAnEmitError) {
  // The second batch's emit fails: the loop returns that status at once,
  // no later user answers and nothing more is emitted.
  ClientFleet fleet = PlantedFleet(40, TestConfig());
  proto::RoundContext ctx = LengthRound();
  std::vector<size_t> users(fleet.num_users());
  for (size_t u = 0; u < users.size(); ++u) users[u] = u;
  size_t answered = 0, emits = 0;
  auto failed = fleet.AnswerRound(
      users.data(), users.size(), ctx.kind(), ctx.domain(), 3,
      [&](proto::ClientSession& session, size_t,
          proto::AnswerScratch& scratch, ReportBatch& batch) {
        ++answered;
        return session.AnswerTo(ctx, &scratch, &batch);
      },
      [&](ReportBatch&) {
        return ++emits == 2 ? Status::Internal("uplink down")
                            : Status::Ok();
      });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(failed.status().message(), "uplink down");
  EXPECT_EQ(emits, 2u);
  EXPECT_EQ(answered, 6u);
}

TEST(ClientFleetTest, AnswerRoundCountsEveryUnlabeledUserFailedOnPe) {
  // An unlabeled fleet cannot answer the classification refinement: every
  // user fails, and an empty batch is never emitted.
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(20, config);
  auto ctx = proto::RoundContext::ClassRefinement(
      {4.0, 3, {{0, 1, 2}, {2, 1, 0}}}, config.metric);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  std::vector<size_t> users(fleet.num_users());
  for (size_t u = 0; u < users.size(); ++u) users[u] = u;
  size_t emits = 0;
  auto failed = fleet.AnswerRound(
      users.data(), users.size(), ctx->kind(), ctx->domain(), 4,
      [&](proto::ClientSession& session, size_t,
          proto::AnswerScratch& scratch, ReportBatch& batch) {
        return session.AnswerTo(*ctx, &scratch, &batch);
      },
      [&](ReportBatch&) {
        ++emits;
        return Status::Ok();
      });
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_EQ(*failed, users.size());
  EXPECT_EQ(emits, 0u);
}

/// Clears the process-wide shutdown flag before and after each test, so a
/// shutdown raised here never leaks into another test.
class ClientFleetShutdownTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetShutdownForTest(); }
  void TearDown() override { ResetShutdownForTest(); }
};

TEST_F(ClientFleetShutdownTest, AnswerRoundStopsBeforeTheNextUser) {
  // The flag rises during the k-th answer, k neither a block nor a batch
  // multiple: the loop answers no one after it and still emits every
  // report it holds, full batches and the partial last one.
  constexpr size_t kAnswers = 11;
  ClientFleet fleet = PlantedFleet(40, TestConfig());
  proto::RoundContext ctx = LengthRound();
  std::vector<size_t> users(fleet.num_users());
  for (size_t u = 0; u < users.size(); ++u) users[u] = u;
  size_t answered = 0, emitted = 0;
  auto failed = fleet.AnswerRound(
      users.data(), users.size(), ctx.kind(), ctx.domain(), 4,
      [&](proto::ClientSession& session, size_t,
          proto::AnswerScratch& scratch, ReportBatch& batch) {
        if (++answered == kAnswers) RequestShutdown();
        return session.AnswerTo(ctx, &scratch, &batch);
      },
      [&](ReportBatch& batch) {
        emitted += batch.size();
        return Status::Ok();
      });
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_EQ(*failed, 0u);
  EXPECT_EQ(answered, kAnswers);
  EXPECT_EQ(emitted, kAnswers);
}

TEST(ClientFleetTest, FromWordsTilesTheList) {
  std::vector<Sequence> words = {{0, 1}, {1, 2}};
  ClientFleet fleet =
      ClientFleet::FromWords(words, 5, dist::Metric::kSed, 3);
  EXPECT_EQ(fleet.num_users(), 5u);
  EXPECT_EQ(fleet.WordFor(0), (Sequence{0, 1}));
  EXPECT_EQ(fleet.WordFor(1), (Sequence{1, 2}));
  EXPECT_EQ(fleet.WordFor(4), (Sequence{0, 1}));
  EXPECT_EQ(fleet.MaterializeWords().size(), 5u);
}

// --- ShardedAggregator --------------------------------------------------

StageSpec LengthSpec(size_t domain = 5, double epsilon = 2.0) {
  StageSpec spec;
  spec.kind = ReportKind::kLength;
  spec.domain = domain;
  spec.epsilon = epsilon;
  return spec;
}

Report LengthReport(uint64_t value) {
  Report report;
  report.kind = ReportKind::kLength;
  report.value = value;
  return report;
}

TEST(ShardedAggregatorTest, MergeIsExactAcrossAnyPartition) {
  ShardedAggregator single(LengthSpec(), 1);
  ShardedAggregator sharded(LengthSpec(), 7);
  ReportBatch all;
  // Deal the same reports round-robin across 7 shards in batches of 3.
  std::vector<ReportBatch> lanes(7);
  for (uint64_t v = 0; v < 100; ++v) {
    Report report = LengthReport(v % 5);
    all.Append(report);
    ReportBatch& lane = lanes[v % 7];
    lane.Append(report);
    if (lane.size() == 3) {
      sharded.ConsumeBatch(v % 7, lane);
      lane.Clear();
    }
  }
  for (size_t shard = 0; shard < 7; ++shard) {
    sharded.ConsumeBatch(shard, lanes[shard]);
  }
  single.ConsumeBatch(0, all);

  EXPECT_EQ(single.accepted(), sharded.accepted());
  EXPECT_EQ(single.Tally(0), sharded.Tally(0));
  // Debiased estimates are byte-identical, not just close.
  EXPECT_EQ(single.DebiasedCounts(0), sharded.DebiasedCounts(0));
}

TEST(ShardedAggregatorTest, RejectsMalformedAndOutOfWindow) {
  ShardedAggregator agg(LengthSpec(), 2);
  Report wrong_kind;
  wrong_kind.kind = ReportKind::kSelection;
  Report bad_level;
  bad_level.kind = ReportKind::kLength;
  bad_level.level = 3;  // window is [0, 1)
  ReportBatch batch;
  batch.Append(LengthReport(2));
  batch.AppendEncoded("garbage");
  batch.Append(wrong_kind);
  batch.Append(bad_level);
  batch.Append(LengthReport(99));  // 99 out of domain
  agg.ConsumeBatch(1, batch);
  EXPECT_EQ(agg.accepted(), 1u);
  EXPECT_EQ(agg.rejected(), 4u);
  EXPECT_EQ(agg.bytes_ingested(), batch.bytes());
}

TEST(ShardedAggregatorTest, MixedClassRefineBatchTalliesLikeConsume) {
  // One lane decodes a whole batch into one reused Report: wide P_e
  // reports (18 candidates x 6 classes = 108 cells) around a truncated
  // one, a 107-bit one and one with empty bits. Counts and tallies must
  // be those of the four wide reports alone, as if each were consumed by
  // itself.
  const size_t kCells = 108;
  StageSpec spec;
  spec.kind = ReportKind::kClassRefine;
  spec.domain = kCells;
  spec.epsilon = 2.0;
  Rng rng(23);
  auto wide = [&] {
    Report report;
    report.kind = ReportKind::kClassRefine;
    uint64_t words[kCells];
    rng.FillU64(words, kCells);
    for (uint64_t word : words) report.bits.push_back(word >> 63);
    return report;
  };
  std::vector<size_t> want(kCells, 0);
  auto counted = [&] {
    Report report = wide();
    for (size_t i = 0; i < kCells; ++i) want[i] += report.bits[i];
    return proto::EncodeReport(report);
  };
  Report narrow = wide();
  narrow.bits.pop_back();
  Report empty;
  empty.kind = ReportKind::kClassRefine;
  std::string truncated = proto::EncodeReport(wide());
  truncated.resize(truncated.size() - 5);
  std::vector<std::string> wires = {
      counted(), truncated, counted(), proto::EncodeReport(narrow),
      counted(), proto::EncodeReport(empty), counted()};

  ShardedAggregator sharded(spec, 1);
  ReportBatch batch;
  for (const std::string& wire : wires) batch.AppendEncoded(wire);
  sharded.ConsumeBatch(0, batch);
  EXPECT_EQ(sharded.accepted(), 4u);
  EXPECT_EQ(sharded.rejected(), 3u);
  EXPECT_EQ(sharded.Tally(0), want);
  EXPECT_EQ(sharded.DebiasedCounts(0),
            ldp::DebiasOueCounts(want, 4, spec.epsilon));
}

TEST(ShardedAggregatorTest, RoutesLevelsWithinWindow) {
  StageSpec spec;
  spec.kind = ReportKind::kSubShape;
  spec.domain = 7;
  spec.epsilon = 1.0;
  spec.min_level = 1;
  spec.num_levels = 3;
  ShardedAggregator agg(spec, 2);
  ReportBatch batch;
  for (uint64_t level = 1; level <= 3; ++level) {
    Report report;
    report.kind = ReportKind::kSubShape;
    report.level = level;
    report.value = level;  // distinct value per level
    batch.Append(report);
  }
  agg.ConsumeBatch(0, batch);
  for (size_t bucket = 0; bucket < 3; ++bucket) {
    EXPECT_EQ(agg.accepted(bucket), 1u) << bucket;
    EXPECT_EQ(agg.Tally(bucket)[bucket + 1], 1u) << bucket;
  }
}

TEST(ShardedAggregatorTest, SubShapeBucketsDebiasOverTheirOwnReports) {
  // P_b's window holds one GRR tally per level, each over its own n. Feed
  // the three levels unevenly (10/30/60%) across four uneven lanes, with
  // rejected reports in and around the window: each bucket must debias
  // its own tally over its own accepted reports, on any lane count.
  StageSpec spec;
  spec.kind = ReportKind::kSubShape;
  spec.domain = 6;
  spec.epsilon = 1.5;
  spec.min_level = 1;
  spec.num_levels = 3;
  std::vector<std::vector<size_t>> want_tally(3,
                                              std::vector<size_t>(6, 0));
  size_t want_accepted[3] = {0, 0, 0};
  ReportBatch all;
  std::vector<ReportBatch> lanes(4);
  Rng rng(17);
  for (size_t i = 0; i < 400; ++i) {
    size_t bucket = i % 10 < 1 ? 0 : i % 10 < 4 ? 1 : 2;
    Report report;
    report.kind = ReportKind::kSubShape;
    report.level = bucket + 1;
    report.value = rng.Index(spec.domain);
    if (i % 13 == 0) report.value = spec.domain;  // out of domain
    if (i % 29 == 0) report.level = i % 2 == 0 ? 0 : 4;  // out of window
    if (report.value < spec.domain && report.level == bucket + 1) {
      ++want_tally[bucket][report.value];
      ++want_accepted[bucket];
    }
    all.Append(report);
    // Lane 3 takes about 5/8 of the reports, lanes 0-2 1/8 each.
    lanes[std::min<size_t>(rng.Index(8), 3)].Append(report);
  }
  ShardedAggregator single(spec, 1);
  single.ConsumeBatch(0, all);
  ShardedAggregator sharded(spec, 4);
  for (size_t lane = 0; lane < 4; ++lane) {
    sharded.ConsumeBatch(lane, lanes[lane]);
  }
  EXPECT_EQ(sharded.rejected(), single.rejected());
  for (size_t bucket = 0; bucket < 3; ++bucket) {
    EXPECT_EQ(sharded.accepted(bucket), want_accepted[bucket]) << bucket;
    EXPECT_EQ(sharded.Tally(bucket), want_tally[bucket]) << bucket;
    EXPECT_EQ(sharded.DebiasedCounts(bucket),
              ldp::DebiasGrrCounts(sharded.Tally(bucket),
                                   want_accepted[bucket], spec.epsilon))
        << bucket;
    EXPECT_EQ(sharded.DebiasedCounts(bucket), single.DebiasedCounts(bucket))
        << bucket;
  }
}

}  // namespace
}  // namespace privshape
