/// Graceful-shutdown contract: SIGINT/SIGTERM (or an in-process
/// RequestShutdown) must stop the collector mid-protocol with
/// StatusCode::kCancelled — queues drained, drainer threads joined,
/// sockets closed — while the metrics collected so far stay intact so
/// the operator's --json file is still written. Runs under the
/// "concurrency" label: cancellation races the drainer handoff, which is
/// exactly where TSan should be watching.

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <thread>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/loadgen.h"
#include "collector/round_coordinator.h"
#include "common/rng.h"
#include "common/shutdown.h"
#include "common/thread_pool.h"

namespace privshape {
namespace {

using collector::ClientFleet;
using collector::CollectorDaemon;
using collector::CollectorMetrics;
using collector::DaemonOptions;
using collector::LoadgenOptions;
using core::MechanismConfig;

constexpr size_t kUsers = 400;

MechanismConfig TestConfig() {
  MechanismConfig config;
  config.epsilon = 6.0;
  config.t = 3;
  config.k = 2;
  config.c = 3;
  config.ell_low = 1;
  config.ell_high = 6;
  config.metric = dist::Metric::kSed;
  config.seed = 29;
  return config;
}

Sequence PlantedWord(size_t user) {
  Rng rng(DeriveSeed(3, user));
  return rng.Uniform() < 0.7 ? Sequence{0, 1, 2} : Sequence{2, 1, 0};
}

/// Every test begins and ends with a clear flag — a shutdown requested by
/// one test must never leak into the next.
class ShutdownTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetShutdownForTest(); }
  void TearDown() override { ResetShutdownForTest(); }
};

TEST_F(ShutdownTest, SignalHandlerSetsTheFlag) {
  InstallShutdownHandler();
  EXPECT_FALSE(ShutdownRequested());
  std::raise(SIGINT);
  EXPECT_TRUE(ShutdownRequested());
  ResetShutdownForTest();
  std::raise(SIGTERM);
  EXPECT_TRUE(ShutdownRequested());
}

TEST_F(ShutdownTest, InProcessCollectReturnsCancelledMidProtocol) {
  MechanismConfig config = TestConfig();
  // The fleet's word function doubles as the trigger: after enough users
  // have answered (mid-round, well past the first stripe), request
  // shutdown exactly the way the signal handler would.
  auto answered = std::make_shared<std::atomic<size_t>>(0);
  ClientFleet fleet(
      kUsers,
      [answered](size_t user) {
        if (answered->fetch_add(1) == kUsers / 2) RequestShutdown();
        return PlantedWord(user);
      },
      config.metric, config.seed);

  ThreadPool pool(4);
  collector::RoundCoordinator coordinator(config, {}, &pool);
  CollectorMetrics metrics;
  auto result = coordinator.Collect(fleet, &metrics);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status();
  // The rounds that finished before the cancel stay on the books, and so
  // does the time they took.
  EXPECT_GT(answered->load(), kUsers / 2);
  EXPECT_FALSE(metrics.rounds.empty());
  EXPECT_GT(metrics.total_seconds, 0.0);
}

TEST_F(ShutdownTest, CollectBeforeAnyRoundIsCancelledImmediately) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet(
      kUsers, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed);
  RequestShutdown();
  ThreadPool pool(2);
  collector::RoundCoordinator coordinator(config, {}, &pool);
  auto result = coordinator.Collect(fleet);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(ShutdownTest, DaemonServeCancelsCleanlyWithMetricsPopulated) {
  MechanismConfig config = TestConfig();
  // The loadgen runs in this process, so the fleet's word function is the
  // deterministic trigger: partway through answering round one it raises
  // the (process-global) shutdown flag the daemon's event loop polls.
  // No sleeps, no race with a fast loopback protocol run.
  auto answered = std::make_shared<std::atomic<size_t>>(0);
  ClientFleet fleet(
      kUsers,
      [answered](size_t user) {
        if (answered->fetch_add(1) == kUsers / 4) RequestShutdown();
        return PlantedWord(user);
      },
      config.metric, config.seed);

  DaemonOptions options;
  options.port = 0;
  options.min_clients = 1;
  options.num_drainers = 2;
  options.accept_timeout_seconds = 60.0;
  options.round_deadline_seconds = 60.0;
  CollectorDaemon daemon(config, fleet.num_users(), options);
  ASSERT_TRUE(daemon.Start().ok());

  Result<core::MechanismResult> served = Status::Internal("not run");
  CollectorMetrics metrics;
  std::thread serve([&] { served = daemon.Serve(&metrics); });

  // The honest client's connection dies with the daemon, so the loadgen
  // is allowed (expected, even) to fail.
  std::thread client([&] {
    LoadgenOptions opts;
    opts.port = daemon.port();
    opts.connections = 1;
    opts.batch_size = 16;
    opts.timeout_seconds = 10.0;
    (void)collector::RunLoadgen(fleet, opts);
  });

  serve.join();
  client.join();

  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kCancelled)
      << served.status();
  // Metrics survive the cancel: the operator still gets a JSON report,
  // with the rounds served so far and the time they took.
  EXPECT_EQ(metrics.ingest, "socket");
  EXPECT_EQ(daemon.stats().handshakes, 1u);
  EXPECT_FALSE(metrics.rounds.empty());
  EXPECT_GT(metrics.total_seconds, 0.0);
}

TEST_F(ShutdownTest, DaemonServeBeforeAcceptIsCancelled) {
  MechanismConfig config = TestConfig();
  DaemonOptions options;
  options.port = 0;
  options.accept_timeout_seconds = 60.0;
  CollectorDaemon daemon(config, kUsers, options);
  ASSERT_TRUE(daemon.Start().ok());

  Result<core::MechanismResult> served = Status::Internal("not run");
  std::thread serve([&] { served = daemon.Serve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RequestShutdown();
  serve.join();
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kCancelled)
      << served.status();
}

}  // namespace
}  // namespace privshape
