// Fleet collection: PrivShape served at scale by the collector subsystem.
//
// A simulated fleet of 20,000 clients is materialized lazily from seeds —
// no per-user state exists until a user is asked to answer, so the same
// code runs million-user fleets in constant memory. The RoundCoordinator
// drives Algorithm 2's four rounds (P_a..P_d) over the wire protocol:
// every byte that reaches the server is a perturbed, encoded report,
// streamed through bounded batch queues into lock-free sharded
// aggregation.
//
// The punchline is the determinism contract: for a fixed seed the
// collector's shapes are byte-identical to the single-threaded
// core::PrivShape pipeline, for any shard/thread count — verified at the
// end of this example.
//
// Build and run:  ./build/examples/fleet_collection

#include <cstdio>
#include <iostream>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "core/privshape.h"
#include "series/sequence.h"

int main() {
  using namespace privshape;

  // 1) The mechanism configuration (paper's Trace defaults).
  core::MechanismConfig config;
  config.epsilon = 4.0;
  config.t = 4;
  config.k = 3;
  config.c = 3;
  config.ell_high = 10;
  config.metric = dist::Metric::kSed;
  config.seed = 42;

  // 2) A lazy fleet: user u's private series (and so its compressed word)
  //    is synthesized on demand from a per-user derived seed — see
  //    collector::GeneratedWordSource for the recipe (per-user Rng ->
  //    class template -> warp/noise -> Compressive SAX). Any
  //    deterministic, thread-safe `Sequence(size_t)` works here.
  const size_t kUsers = 20000;
  auto word_fn = collector::GeneratedWordSource("trace", config.seed);
  if (!word_fn.ok()) {
    std::cerr << "fleet setup failed: " << word_fn.status() << "\n";
    return 1;
  }
  collector::ClientFleet fleet(kUsers, *word_fn, config.metric, config.seed);

  // 3) Serve the four collection rounds on 4 threads, 8 shards, with
  //    streaming ingestion: answering workers push report batches into
  //    bounded queues while drainer threads aggregate concurrently
  //    (queue_depth bounds the in-flight batches — that is the
  //    backpressure).
  ThreadPool pool(4);
  collector::CollectorOptions options;
  options.num_shards = 8;
  options.queue_depth = 8;
  collector::RoundCoordinator coordinator(config, options, &pool);
  collector::CollectorMetrics metrics;
  auto result = coordinator.Collect(fleet, &metrics);
  if (!result.ok()) {
    std::cerr << "collection failed: " << result.status() << "\n";
    return 1;
  }

  std::cout << "extracted shapes (frequent length "
            << result->frequent_length << "):\n";
  for (const auto& shape : result->shapes) {
    std::printf("  \"%s\"  est. frequency %.1f\n",
                SequenceToString(shape.shape).c_str(), shape.frequency);
  }
  std::printf("served %zu accepted reports in %.2fs (%.0f accepted/s)\n",
              metrics.TotalAccepted(), metrics.total_seconds,
              metrics.TotalAcceptedPerSec());

  // 4) The determinism contract: the single-threaded pipeline on the same
  //    words produces byte-identical shapes.
  core::PrivShape reference(config);
  auto expected = reference.Run(fleet.MaterializeWords());
  if (!expected.ok()) {
    std::cerr << "core pipeline failed: " << expected.status() << "\n";
    return 1;
  }
  bool identical = expected->shapes.size() == result->shapes.size();
  for (size_t i = 0; identical && i < expected->shapes.size(); ++i) {
    identical = expected->shapes[i].shape == result->shapes[i].shape &&
                expected->shapes[i].frequency == result->shapes[i].frequency;
  }
  std::cout << "collector == single-threaded core pipeline: "
            << (identical ? "yes (byte-identical)" : "NO — bug!") << "\n";
  return identical ? 0 : 1;
}
