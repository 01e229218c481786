/// \file
/// `privshape_collectord` — the PrivShape collection protocol served over
/// TCP. The daemon owns only the mechanism configuration and the fleet
/// size; the users' private words live on the client side
/// (privshape_loadgen or any speaker of the net/ wire protocol). Runs the
/// whole Algorithm 2 protocol once a quorum of clients handshakes, prints
/// the extracted shapes, and exits.
///
/// Examples:
///   privshape_collectord --port 9477 --users 100000 --min-clients 8
///   privshape_collectord --port 0 --users 50000 --dataset symbols
///   privshape_collectord --port 9478 --users 50000 --num-classes 3
///       --json collectord-metrics.json
///
/// SIGINT/SIGTERM: finishes draining the round in flight, closes every
/// socket, still writes --json metrics, exits 3.

#include <cstdio>
#include <iostream>
#include <string>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/shapes_io.h"
#include "common/cli.h"
#include "common/shutdown.h"
#include "telemetry/trace.h"

namespace {

using namespace privshape;  // NOLINT(build/namespaces)

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  InstallShutdownHandler();
  auto fail = [](const Status& status) {
    std::cerr << "privshape_collectord: " << status << "\n";
    return 1;
  };

  // Every flag is read here, before any work. The mechanism flags are the
  // ones privshape_collector takes; the loadgen builds its fleet from the
  // same flags — seed agreement is enforced by the handshake, the rest
  // by --check.
  auto config = collector::MechanismConfigFromArgs(
      args, args.GetString("dataset", "trace"));
  // Counts parse strictly: typos fail loudly, never run defaults.
  auto users = args.GetCount("users", 100000);
  auto port = args.GetCount("port", 0);
  auto min_clients = args.GetCount("min-clients", 1);
  auto drainers = args.GetCount("drainers", 2);
  auto queue_depth = args.GetCount(
      "queue-depth",
      static_cast<int>(collector::DaemonOptions{}.queue_depth));
  auto stats_port = args.GetCount("stats-port", 0);
  auto accept_timeout = args.GetDoubleStatus("accept-timeout", 30.0);
  auto round_deadline = args.GetDoubleStatus("round-deadline", 30.0);
  std::string host = args.GetString("host", "127.0.0.1");
  std::string trace_file = args.GetString("trace", "");
  std::string json = args.GetString("json", "");
  if (!config.ok()) return fail(config.status());
  for (const auto* flag : {&users, &port, &min_clients, &drainers,
                           &queue_depth, &stats_port}) {
    if (!flag->ok()) return fail(flag->status());
  }
  if (!accept_timeout.ok()) return fail(accept_timeout.status());
  if (!round_deadline.ok()) return fail(round_deadline.status());
  Status unread = args.CheckAllRead();
  if (!unread.ok()) return fail(unread);
  if (*port > 65535) {
    std::cerr << "privshape_collectord: --port must be <= 65535\n";
    return 1;
  }
  if (*min_clients == 0) {
    std::cerr << "privshape_collectord: --min-clients must be >= 1\n";
    return 1;
  }

  collector::DaemonOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(*port);
  options.min_clients = *min_clients;
  options.accept_timeout_seconds = *accept_timeout;
  options.round_deadline_seconds = *round_deadline;
  options.num_drainers = *drainers;
  options.queue_depth = *queue_depth;
  if (args.Has("stats-port")) {
    if (*stats_port > 65535) {
      std::cerr << "privshape_collectord: --stats-port must be in "
                   "[0, 65535]\n";
      return 1;
    }
    options.stats_enabled = true;
    options.stats_port = static_cast<uint16_t>(*stats_port);
  }

  // --trace FILE: record per-round/per-connection spans and write a
  // chrome://tracing JSON on exit.
  telemetry::ScopedTraceFile trace(trace_file);

  collector::CollectorDaemon daemon(*config, *users, options);
  Status started = daemon.Start();
  if (!started.ok()) return fail(started);
  // CI greps this line for the bound port; flush before blocking.
  std::printf("privshape_collectord: listening on %s:%u (%zu users, "
              "min %zu clients)\n",
              options.host.c_str(), daemon.port(), *users, *min_clients);
  if (options.stats_enabled) {
    // CI greps this line for the scrape port.
    std::printf("privshape_collectord: stats endpoint on %s:%u\n",
                options.host.c_str(), daemon.stats_port());
  }
  std::fflush(stdout);

  collector::CollectorMetrics metrics;
  auto result = daemon.Serve(&metrics);

  bool labeled = config->num_classes > 0;
  auto write_json = [&](const core::MechanismResult* shapes) -> bool {
    if (json.empty()) return true;
    JsonValue doc = metrics.ToJson();
    if (shapes != nullptr) {
      doc.Set("shapes", collector::ShapesJson(*shapes, labeled));
    }
    Status written = collector::WriteJsonFile(doc, json);
    if (!written.ok()) {
      std::cerr << "privshape_collectord: " << written << "\n";
      return false;
    }
    std::printf("metrics written to %s\n", json.c_str());
    return true;
  };

  if (!result.ok()) {
    std::cerr << "privshape_collectord: " << result.status() << "\n";
    // A graceful shutdown still leaves a usable metrics artifact behind.
    bool wrote = write_json(nullptr);
    if (result.status().code() == StatusCode::kCancelled && wrote) return 3;
    return 1;
  }

  collector::PrintShapes(*result, labeled);
  std::printf("\n%-10s %10s %10s %10s %12s %10s %12s %12s\n", "stage",
              "users", "accepted", "rejected", "accepted/s", "seconds",
              "ingp50(us)", "ingp99(us)");
  for (const auto& round : metrics.rounds) {
    std::printf("%-10s %10zu %10zu %10zu %12.0f %10.3f %12.1f %12.1f\n",
                round.stage.c_str(), round.users, round.accepted,
                round.rejected, round.AcceptedPerSec(), round.seconds,
                round.ingest_p50_ns / 1000.0, round.ingest_p99_ns / 1000.0);
  }
  const auto& stats = daemon.stats();
  std::printf("connections: %zu handshaked, %zu disconnects, "
              "%zu protocol errors, %zu stale batches, %zu deadline drops\n",
              stats.handshakes, stats.disconnects, stats.protocol_errors,
              stats.stale_batches, stats.deadline_drops);
  if (!write_json(&*result)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
