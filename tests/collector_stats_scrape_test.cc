/// The daemon's stats endpoint, scraped mid-run over loopback: a full
/// daemon + loadgen protocol run with stats enabled, while the test
/// thread scrapes /metrics and the JSON path in a loop for as long as
/// the protocol is in flight. Scrapes must be served without pausing
/// ingestion (the endpoint rides the daemon's epoll loop), must expose
/// live daemon state rendered from that daemon's own record, and the
/// run's result must be unaffected by being observed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/loadgen.h"
#include "collector/shapes_io.h"
#include "common/rng.h"
#include "common/socket.h"
#include "core/privshape.h"

namespace privshape {
namespace {

constexpr size_t kUsers = 3000;

Sequence PlantedWord(size_t user, uint64_t seed = 1) {
  Rng rng(DeriveSeed(seed, user));
  double noise = rng.Uniform();
  int cls = noise < 0.2 ? static_cast<int>(rng.Index(3))
                        : static_cast<int>(user % 3);
  if (cls == 0) return {0, 1, 2};
  if (cls == 1) return {2, 1, 0};
  return {1, 0, 1};
}

core::MechanismConfig TestConfig() {
  core::MechanismConfig config;
  config.epsilon = 6.0;
  config.t = 3;
  config.k = 2;
  config.c = 3;
  config.ell_low = 1;
  config.ell_high = 6;
  config.metric = dist::Metric::kSed;
  config.seed = 17;
  return config;
}

/// One blocking HTTP/1.0 GET; empty string on any failure (scrapes that
/// race the end-of-run teardown are allowed to fail).
std::string Scrape(uint16_t port, const std::string& path) {
  auto fd = TcpConnect("127.0.0.1", port);
  if (!fd.ok()) return "";
  SetRecvTimeout(fd->get(), 10.0);
  if (!WriteAll(fd->get(), "GET " + path + " HTTP/1.0\r\n\r\n").ok()) {
    return "";
  }
  std::string response;
  char buf[4096];
  while (true) {
    auto n = ReadSome(fd->get(), buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(buf, *n);
  }
  return response;
}

/// What one scraped daemon + loadgen run produced: both sides' results
/// and every scrape body served while the run was in flight.
struct ScrapedRun {
  Result<core::MechanismResult> served = Status::Internal("serve not run");
  Result<collector::LoadgenOutcome> outcome =
      Status::Internal("loadgen not run");
  std::vector<std::string> texts;  ///< /metrics responses
  std::vector<std::string> jsons;  ///< /stats.json responses
};

/// Serves the whole protocol from a fresh daemon (stats endpoint on, two
/// drainers) to a loadgen on two connections, while this thread scrapes
/// /metrics and the JSON path in a loop for as long as the run lasts. The
/// daemon serves each scrape between protocol frames, so every hit is by
/// definition mid-run.
ScrapedRun ServeScraped(const core::MechanismConfig& config,
                        const collector::ClientFleet& fleet) {
  collector::DaemonOptions options;
  options.port = 0;
  options.min_clients = 2;
  options.num_drainers = 2;
  options.accept_timeout_seconds = 60.0;
  options.round_deadline_seconds = 120.0;
  options.stats_enabled = true;
  options.stats_port = 0;  // ephemeral; read back below
  collector::CollectorDaemon daemon(config, kUsers, options);
  ScrapedRun run;
  Status started = daemon.Start();
  EXPECT_TRUE(started.ok()) << started;
  EXPECT_GT(daemon.stats_port(), 0);
  if (!started.ok()) return run;
  uint16_t stats_port = daemon.stats_port();

  collector::CollectorMetrics metrics;
  std::thread serve([&] { run.served = daemon.Serve(&metrics); });
  collector::LoadgenOptions client;
  client.port = daemon.port();
  client.connections = 2;
  client.batch_size = 64;
  client.timeout_seconds = 120.0;
  std::atomic<bool> load_done{false};
  std::thread load([&] {
    run.outcome = collector::RunLoadgen(fleet, client);
    load_done.store(true, std::memory_order_release);
  });
  while (!load_done.load(std::memory_order_acquire)) {
    std::string text = Scrape(stats_port, "/metrics");
    if (!text.empty()) run.texts.push_back(std::move(text));
    std::string json = Scrape(stats_port, "/stats.json");
    if (!json.empty()) run.jsons.push_back(std::move(json));
  }
  load.join();
  serve.join();
  return run;
}

/// The value of `name`'s sample line in a /metrics body; -1 when absent.
long long SampleValue(const std::string& text, const std::string& name) {
  std::string line = "\n" + name + " ";
  size_t at = text.find(line);
  if (at == std::string::npos) return -1;
  return std::atoll(text.c_str() + at + line.size());
}

TEST(CollectorStatsScrape, LiveMetricsMidRun) {
  core::MechanismConfig config = TestConfig();
  collector::ClientFleet fleet(
      kUsers, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed);
  ScrapedRun run = ServeScraped(config, fleet);
  ASSERT_TRUE(run.outcome.ok()) << run.outcome.status();
  ASSERT_TRUE(run.served.ok()) << run.served.status();
  // Being scraped must not change what is counted.
  EXPECT_TRUE(collector::SameShapes(*run.served, run.outcome->result));
  EXPECT_EQ(run.outcome->client_errors, 0u);

  EXPECT_GT(run.texts.size(), 0u);
  EXPECT_GT(run.jsons.size(), 0u);
  // The daemon's lines are in every scrape, from its first; one taken
  // after both clients handshaked reads 2.
  bool saw_daemon_counter = false;
  for (const std::string& text : run.texts) {
    EXPECT_NE(text.find("200 OK"), std::string::npos);
    EXPECT_NE(text.find("text/plain"), std::string::npos);
    if (text.find("\ndaemon_handshakes_total 2\n") != std::string::npos) {
      saw_daemon_counter = true;
    }
  }
  bool saw_live_json = false;
  for (const std::string& json : run.jsons) {
    EXPECT_NE(json.find("200 OK"), std::string::npos);
    EXPECT_NE(json.find("application/json"), std::string::npos);
    // Live daemon state, present in every snapshot.
    if (json.find("\"round\"") != std::string::npos &&
        json.find("\"round_in_flight\"") != std::string::npos &&
        json.find("\"live_connections\"") != std::string::npos) {
      saw_live_json = true;
    }
  }
  EXPECT_TRUE(saw_daemon_counter);
  EXPECT_TRUE(saw_live_json);
}

TEST(CollectorStatsScrape, EachDaemonScrapesItsOwnRecord) {
  // Two daemons back to back in one process, two clients each. Each
  // daemon's figures are rendered from its own record, so the second one
  // never reports the first one's connections.
  core::MechanismConfig config = TestConfig();
  collector::ClientFleet fleet(
      kUsers, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed);
  ScrapedRun first = ServeScraped(config, fleet);
  ASSERT_TRUE(first.served.ok()) << first.served.status();
  ScrapedRun second = ServeScraped(config, fleet);
  ASSERT_TRUE(second.outcome.ok()) << second.outcome.status();
  ASSERT_TRUE(second.served.ok()) << second.served.status();
  EXPECT_TRUE(collector::SameShapes(*first.served, *second.served));

  bool saw_both_clients = false;
  for (const std::string& text : second.texts) {
    long long handshakes = SampleValue(text, "daemon_handshakes_total");
    long long live = SampleValue(text, "daemon_connections_live");
    EXPECT_GE(handshakes, 0) << text;
    EXPECT_LE(handshakes, 2) << text;
    EXPECT_LE(live, 2) << text;
    if (live == 2) {
      // Both clients are in: exactly their two handshakes, nothing more.
      EXPECT_EQ(handshakes, 2) << text;
      saw_both_clients = true;
    }
  }
  EXPECT_TRUE(saw_both_clients);
  for (const std::string& json : second.jsons) {
    size_t registry = json.find("\"registry\"");
    ASSERT_NE(registry, std::string::npos);
    EXPECT_EQ(json.find("\"daemon_", registry), std::string::npos) << json;
  }
}

}  // namespace
}  // namespace privshape
