/// The socket determinism contract, end to end over real loopback TCP:
/// for a fixed fleet seed, the shapes a CollectorDaemon extracts from a
/// RunLoadgen fleet must be byte-identical to the single-threaded core
/// pipeline AND to the in-process collector path — for every combination
/// of {unlabeled, labeled} x drainer count x connection count (each
/// drainer owns one aggregation lane). The wire changes how reports
/// travel, never what is counted.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/loadgen.h"
#include "collector/round_coordinator.h"
#include "collector/shapes_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/privshape.h"

namespace privshape {
namespace {

using collector::ClientFleet;
using collector::CollectorDaemon;
using collector::CollectorMetrics;
using collector::DaemonOptions;
using collector::LoadgenOptions;
using core::MechanismConfig;

constexpr int kClasses = 3;
constexpr size_t kUsers = 1200;

int PlantedLabel(size_t user) { return static_cast<int>(user % kClasses); }

/// Planted mixture (same family as the in-process collector suites):
/// class 0 mostly "abc", class 1 mostly "cba", class 2 mostly "bab".
Sequence PlantedWord(size_t user, uint64_t seed = 1) {
  Rng rng(DeriveSeed(seed, user));
  double noise = rng.Uniform();
  int cls = noise < 0.15 ? static_cast<int>(rng.Index(kClasses))
                         : PlantedLabel(user);
  if (cls == 0) return {0, 1, 2};
  if (cls == 1) return {2, 1, 0};
  return {1, 0, 1};
}

MechanismConfig TestConfig(bool labeled) {
  MechanismConfig config;
  config.epsilon = 6.0;
  config.t = 3;
  config.k = 2;
  config.c = 3;
  config.ell_low = 1;
  config.ell_high = 6;
  config.metric = dist::Metric::kSed;
  config.num_classes = labeled ? kClasses : 0;
  config.seed = 17;
  return config;
}

ClientFleet TestFleet(const MechanismConfig& config) {
  return ClientFleet(
      kUsers, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed,
      config.num_classes > 0
          ? ClientFleet::LabelFn([](size_t user) { return PlantedLabel(user); })
          : ClientFleet::LabelFn(nullptr));
}

/// One full protocol run over loopback sockets: daemon on an ephemeral
/// port, the fleet multiplexed over `connections` loadgen connections.
/// Returns the daemon's result; `loadgen_result` gets the shapes decoded
/// from the Complete broadcast on the client side.
Result<core::MechanismResult> RunOverSockets(
    const MechanismConfig& config, const ClientFleet& fleet, size_t drainers,
    size_t connections, core::MechanismResult* loadgen_result) {
  DaemonOptions options;
  options.port = 0;
  options.min_clients = connections;
  options.num_drainers = drainers;
  options.accept_timeout_seconds = 60.0;
  options.round_deadline_seconds = 120.0;
  CollectorDaemon daemon(config, fleet.num_users(), options);
  Status started = daemon.Start();
  if (!started.ok()) return started;

  Result<core::MechanismResult> served = Status::Internal("serve not run");
  CollectorMetrics metrics;
  std::thread serve([&] { served = daemon.Serve(&metrics); });

  LoadgenOptions client;
  client.port = daemon.port();
  client.connections = connections;
  client.batch_size = 64;
  client.timeout_seconds = 120.0;
  auto outcome = collector::RunLoadgen(fleet, client);
  serve.join();
  if (!outcome.ok()) return outcome.status();
  if (!served.ok()) return served.status();

  // Bookkeeping invariants of a clean run: every connection handshaked,
  // nothing was dropped, stale, or deadlined, and the metrics carry the
  // socket ingest marker.
  EXPECT_EQ(daemon.stats().handshakes, connections);
  EXPECT_EQ(daemon.stats().protocol_errors, 0u);
  EXPECT_EQ(daemon.stats().stale_batches, 0u);
  EXPECT_EQ(daemon.stats().deadline_drops, 0u);
  EXPECT_EQ(metrics.ingest, "socket");
  EXPECT_EQ(metrics.daemon.handshakes, connections);
  EXPECT_EQ(metrics.num_shards, drainers);
  EXPECT_FALSE(metrics.rounds.empty());
  EXPECT_EQ(outcome->client_errors, 0u);

  *loadgen_result = outcome->result;
  return served;
}

void RunParityMatrix(bool labeled) {
  MechanismConfig config = TestConfig(labeled);
  ClientFleet fleet = TestFleet(config);
  std::vector<Sequence> words = fleet.MaterializeWords();
  std::vector<int> labels = fleet.MaterializeLabels();

  core::PrivShape reference(config);
  auto expected = reference.Run(words, labeled ? &labels : nullptr);
  ASSERT_TRUE(expected.ok()) << expected.status();

  // The in-process collector path must agree too — the daemon, the
  // coordinator, and the core pipeline are three routes to one answer.
  ThreadPool pool(4);
  collector::RoundCoordinator coordinator(config, {}, &pool);
  auto in_process = coordinator.Collect(fleet);
  ASSERT_TRUE(in_process.ok()) << in_process.status();
  EXPECT_TRUE(collector::SameShapes(*expected, *in_process));

  for (size_t drainers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t connections : {size_t{1}, size_t{8}, size_t{64}}) {
      SCOPED_TRACE("drainers=" + std::to_string(drainers) +
                   " connections=" + std::to_string(connections));
      core::MechanismResult client_view;
      auto served =
          RunOverSockets(config, fleet, drainers, connections, &client_view);
      ASSERT_TRUE(served.ok()) << served.status();
      // Byte-identical on the server side...
      EXPECT_TRUE(collector::SameShapes(*expected, *served));
      // ...and on the client side, through the Complete broadcast.
      EXPECT_TRUE(collector::SameShapes(*expected, client_view));
    }
  }
}

TEST(CollectorDaemonParityTest, UnlabeledMatchesCoreForAllShardsAndConns) {
  RunParityMatrix(/*labeled=*/false);
}

TEST(CollectorDaemonParityTest, LabeledMatchesCoreForAllShardsAndConns) {
  RunParityMatrix(/*labeled=*/true);
}

}  // namespace
}  // namespace privshape
