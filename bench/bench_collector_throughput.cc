/// \file
/// Collector throughput scaling: runs the full four-round protocol over a
/// generated Trace-style fleet and records reports/sec per configuration
/// (with --json; BENCH_collector.json is the repo's committed baseline,
/// which later scaling changes regress against), sweeping thread counts
/// (1, 2, 4, ... threads).
///
///   bench_collector_throughput --users 100000 --threads 8
///       --json BENCH_collector.json
///
/// `--threads` caps the sweep; `--users` sizes the fleet. The determinism
/// contract means every configuration extracts identical shapes —
/// verified here as a sanity check.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/thread_pool.h"

namespace privshape {
namespace {

using bench::ExperimentScale;

struct RunResult {
  bool ok = false;
  double rate = 0.0;
  double seconds = 0.0;
  size_t bytes_up = 0;
  size_t rejected = 0;
  std::string shapes;
  std::string error;  ///< status text when !ok
};

RunResult RunOnce(const core::MechanismConfig& config,
                  const collector::ClientFleet& fleet,
                  const collector::CollectorOptions& options,
                  ThreadPool* pool) {
  collector::CollectorMetrics metrics;
  Result<core::MechanismResult> result =
      collector::RoundCoordinator(config, options, pool)
          .Collect(fleet, &metrics);
  RunResult out;
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }
  out.ok = true;
  // Accepted (validated) reports per second: the bench fleet is clean, so
  // this equals the ingest rate — but the honest label is "useful work".
  out.rate = metrics.TotalAcceptedPerSec();
  out.seconds = metrics.total_seconds;
  out.bytes_up = metrics.TotalBytesUp();
  out.rejected = metrics.TotalRejected();
  for (const auto& s : result->shapes) {
    out.shapes += SequenceToString(s.shape) + " ";
  }
  return out;
}

/// Best-of-`trials` wall clock (the usual bench convention: the fastest
/// run is the least-perturbed one; shapes are identical across trials by
/// the determinism contract, so only timing varies).
RunResult RunBest(const core::MechanismConfig& config,
                  const collector::ClientFleet& fleet,
                  const collector::CollectorOptions& options,
                  ThreadPool* pool, int trials) {
  RunResult best;
  for (int trial = 0; trial < std::max(trials, 1); ++trial) {
    RunResult run = RunOnce(config, fleet, options, pool);
    if (run.ok ? (!best.ok || run.rate > best.rate) : !best.ok) {
      best = run;  // fastest good run, or an error if none succeed
    }
  }
  return best;
}

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  ExperimentScale scale = bench::ScaleFromArgs(args, /*default_users=*/50000,
                                               /*default_trials=*/3);
  size_t max_threads = scale.threads > 0
                           ? scale.threads
                           : std::max<size_t>(
                                 1, std::thread::hardware_concurrency());
  auto json = bench::MaybeJson(args);
  // Records from different machines must be distinguishable, and a
  // single-core machine cannot measure thread scaling at all — both are
  // run-wide facts, so they live in the file's meta, not per record.
  size_t hw_threads = std::thread::hardware_concurrency();
  bool can_scale = hw_threads > 1;
  if (json != nullptr) {
    json->SetMeta("hardware_concurrency", static_cast<uint64_t>(hw_threads));
    json->SetMeta("speedup_valid", can_scale ? "true" : "false");
  }

  core::MechanismConfig config = bench::TraceConfig(
      args.GetDouble("epsilon", 4.0), scale.seed);
  auto source = collector::GeneratedWordSource("trace", scale.seed);
  if (!source.ok()) {
    bench::PrintTitle("collector bench setup failed: " +
                      source.status().ToString());
    return 1;
  }
  // Materialize each user's word ONCE, outside every measured run: in a
  // real deployment the private series lives on the client, so per-report
  // series synthesis is benchmark overhead, not collector work — and it
  // used to dominate the measured rate (~25us/report of generator time
  // against a ~1-3us answer path). Same words, same per-user seeds, so
  // the extracted shapes are unchanged.
  collector::ClientFleet generated(scale.users, std::move(*source),
                                   config.metric, config.seed);
  collector::ClientFleet fleet = collector::ClientFleet::FromWords(
      generated.MaterializeWords(), scale.users, config.metric, config.seed);

  bench::PrintTitle("Collector throughput (generated Trace fleet, " +
                    std::to_string(scale.users) + " users)");
  if (!can_scale) {
    bench::PrintTitle(
        "NOTE: 1 hardware thread — thread-scaling speedups not measurable");
  }
  bench::PrintHeader({"threads", "accepted/s", "seconds", "speedup", "shapes"});

  std::vector<size_t> thread_counts;
  for (size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) {
    thread_counts.push_back(max_threads);
  }

  double base_rate = 0.0;
  std::string reference_shapes;
  bool deterministic = true;
  size_t completed = 0;

  auto record = [&](size_t threads, const collector::CollectorOptions& options,
                    const RunResult& run) {
    if (!run.ok) {
      bench::PrintRow({std::to_string(threads), "-", "-", "-", run.error});
      return;
    }
    ++completed;
    if (reference_shapes.empty()) {
      reference_shapes = run.shapes;
    } else if (run.shapes != reference_shapes) {
      deterministic = false;
    }
    if (base_rate == 0.0) base_rate = run.rate;
    double speedup = base_rate > 0.0 ? run.rate / base_rate : 0.0;
    // On a single core every "parallel" run shares the one CPU, so a
    // speedup of ~1 is an artifact of the machine, not the code — print
    // and record it as not-applicable instead of a misleading number.
    bench::PrintRow({std::to_string(threads), FormatDouble(run.rate, 6),
                     FormatDouble(run.seconds, 4),
                     can_scale ? FormatDouble(speedup, 3) : "n/a",
                     run.shapes});
    if (json != nullptr) {
      std::vector<std::pair<std::string, double>> metrics = {
          {"accepted_per_sec", run.rate},
          {"seconds", run.seconds},
          {"bytes_up", static_cast<double>(run.bytes_up)},
          {"rejected", static_cast<double>(run.rejected)}};
      if (can_scale) {
        metrics.emplace_back("speedup_vs_1_thread", speedup);
      }
      json->AddRecord(
          "collector_throughput",
          {{"threads", std::to_string(threads)},
           {"shards", std::to_string(options.num_shards)},
           {"queue_depth", std::to_string(options.queue_depth)},
           {"users", std::to_string(scale.users)},
           {"dataset", "trace"}},
          metrics);
    }
  };

  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    collector::CollectorOptions options;
    // 4 shards per worker keeps stripes small enough to load-balance.
    options.num_shards = threads * 4;
    record(threads, options,
           RunBest(config, fleet, options, &pool, scale.trials));
  }

  if (!deterministic) {
    bench::PrintRow(
        {"WARNING", "shapes varied across configurations", "", "", ""});
    return 1;
  }
  if (completed == 0) {
    bench::PrintTitle("no configuration completed; baseline NOT recorded");
    return 1;
  }
  if (json != nullptr && !json->Flush()) {
    bench::PrintTitle("failed to write the --json baseline file");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace privshape

int main(int argc, char** argv) { return privshape::Main(argc, argv); }
