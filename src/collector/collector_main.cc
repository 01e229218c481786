/// \file
/// `privshape_collector` — end-to-end collection server over a simulated
/// fleet. Synthesizes (or loads) a fleet of users, runs the full
/// Algorithm 2 protocol through the sharded multi-threaded
/// RoundCoordinator (streaming ingestion), prints the extracted shapes
/// and throughput metrics, and optionally verifies the determinism
/// contract against the single-threaded core pipeline.
///
/// Examples:
///   privshape_collector --dataset trace --users 1000000 --threads 8
///   privshape_collector --users 20000 --threads 4 --check-determinism
///       --json metrics.json
///   privshape_collector --csv data.csv --epsilon 2 --users 50000
///   privshape_collector --users 100000 --queue-depth 16
///   privshape_collector --num-classes 3 --users 50000     # labeled shapes
///   privshape_collector --csv data.csv --labels labels.csv --num-classes 4
///   privshape_collector --csv data.csv --label-column 0 --num-classes 4

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "collector/shapes_io.h"
#include "common/cli.h"
#include "common/csv.h"
#include "common/shutdown.h"
#include "core/pipeline.h"
#include "core/privshape.h"
#include "telemetry/trace.h"

namespace {

using namespace privshape;  // NOLINT(build/namespaces)

struct FleetSetup {
  collector::ClientFleet::WordFn word_fn;
  collector::ClientFleet::LabelFn label_fn;  ///< null = unlabeled fleet
  std::string description;
};

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open labels file: " + path);
  }
  std::string text{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  // bad() is the underlying-I/O-error bit; eof alone is the normal end.
  if (in.bad()) {
    return Status::Internal("failed reading labels file: " + path);
  }
  return text;
}

/// Splits column `column` of the ingested CSV rows off as integer class
/// labels (validated against [0, num_classes) right here, at ingest) and
/// leaves the remaining cells as the series values.
Result<std::vector<int>> ExtractLabelColumn(
    std::vector<std::vector<double>>* rows, int column, int num_classes) {
  std::vector<int> labels;
  labels.reserve(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    auto& row = (*rows)[i];
    if (column >= static_cast<int>(row.size())) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(i) + " has " +
          std::to_string(row.size()) + " cells; --label-column " +
          std::to_string(column) + " is out of range");
    }
    double raw = row[static_cast<size_t>(column)];
    if (raw != std::floor(raw)) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(i) + ": label cell " +
          std::to_string(raw) + " is not an integer");
    }
    if (raw < 0.0 || raw >= static_cast<double>(num_classes)) {
      // Format the double directly: casting an out-of-long-long value
      // (e.g. 1e300) for the message would be UB.
      return Status::OutOfRange(
          "CSV row " + std::to_string(i) + ": label " + FormatDouble(raw) +
          " outside [0, " + std::to_string(num_classes) + ")");
    }
    labels.push_back(static_cast<int>(raw));
    row.erase(row.begin() + column);
    if (row.empty()) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(i) +
          " has no series values left after --label-column");
    }
  }
  return labels;
}

/// The paper defaults a dataset name selects (§V-B3), shared with the
/// daemon and loadgen so a dataset name means the same mechanism
/// everywhere. Any name other than "symbols" keeps the trace defaults (a
/// --csv run may name its dataset freely).
const char* DefaultsFor(const std::string& dataset) {
  return dataset == "symbols" ? "symbols" : "trace";
}

/// Where the fleet's words and labels come from: --csv rows (labelled by
/// --labels FILE or --label-column N) or the generated --dataset.
struct FleetFlags {
  std::string dataset;
  std::string csv;
  std::string labels_file;
  int label_column = -1;
};

Result<FleetSetup> BuildSetup(const FleetFlags& flags,
                              const core::MechanismConfig& config) {
  FleetSetup setup;
  if ((!flags.labels_file.empty() || flags.label_column >= 0) &&
      config.num_classes == 0) {
    return Status::InvalidArgument(
        "--labels/--label-column require --num-classes > 0");
  }
  if (!flags.labels_file.empty() && flags.label_column >= 0) {
    return Status::InvalidArgument(
        "--labels and --label-column are mutually exclusive");
  }

  if (!flags.csv.empty()) {
    auto rows = ReadCsvDoubles(flags.csv);
    if (!rows.ok()) return rows.status();
    if (rows->empty()) {
      return Status::InvalidArgument("CSV dataset is empty: " + flags.csv);
    }
    std::vector<int> labels;
    if (config.num_classes > 0) {
      if (flags.label_column >= 0) {
        auto extracted =
            ExtractLabelColumn(&*rows, flags.label_column, config.num_classes);
        if (!extracted.ok()) return extracted.status();
        labels = std::move(*extracted);
      } else if (!flags.labels_file.empty()) {
        auto text = ReadFileToString(flags.labels_file);
        if (!text.ok()) return text.status();
        auto parsed = collector::ParseLabelsCsv(*text, config.num_classes);
        if (!parsed.ok()) return parsed.status();
        labels = std::move(*parsed);
        if (labels.size() != rows->size()) {
          return Status::InvalidArgument(
              flags.labels_file + " has " + std::to_string(labels.size()) +
              " labels for " + std::to_string(rows->size()) + " CSV rows");
        }
      } else {
        return Status::InvalidArgument(
            "--num-classes with --csv requires --labels FILE or "
            "--label-column N");
      }
    }
    auto transform = collector::GeneratedTransform(DefaultsFor(flags.dataset));
    if (!transform.ok()) return transform.status();
    std::vector<Sequence> words;
    words.reserve(rows->size());
    for (size_t i = 0; i < rows->size(); ++i) {
      auto word = core::TransformSeries((*rows)[i], *transform);
      if (!word.ok()) {
        // Fail loudly: a fleet of placeholder words would "succeed" end
        // to end while never ingesting the dataset.
        return Status::InvalidArgument(
            "CSV row " + std::to_string(i) + " of " + flags.csv +
            " cannot be transformed (" + word.status().ToString() + ")");
      }
      words.push_back(std::move(*word));
    }
    setup.description = "csv:" + flags.csv;
    // Tile the CSV rows (and their labels, same modulo) across the
    // requested fleet size.
    setup.word_fn = collector::ClientFleet::TiledWords(std::move(words));
    setup.label_fn = collector::ClientFleet::TiledLabels(std::move(labels));
    return setup;
  }

  if (!flags.labels_file.empty() || flags.label_column >= 0) {
    return Status::InvalidArgument(
        "--labels/--label-column require --csv (generated fleets label "
        "themselves)");
  }
  auto words = collector::GeneratedWordSource(flags.dataset, config.seed);
  if (!words.ok()) return words.status();
  if (config.num_classes > 0) {
    // Generated fleets are self-labeling: user u's instance is synthesized
    // from class u % dataset-classes. Reject a class count the synthesized
    // labels would overflow — at setup, not deep inside the P_e round.
    auto dataset_classes = collector::GeneratedNumClasses(flags.dataset);
    if (!dataset_classes.ok()) return dataset_classes.status();
    if (config.num_classes < *dataset_classes) {
      return Status::OutOfRange(
          "generated dataset '" + flags.dataset + "' has " +
          std::to_string(*dataset_classes) +
          " classes; --num-classes must be >= that (got " +
          std::to_string(config.num_classes) + ")");
    }
    auto labels = collector::GeneratedLabelSource(flags.dataset);
    if (!labels.ok()) return labels.status();
    setup.label_fn = std::move(*labels);
  }
  setup.description = "generated:" + flags.dataset;
  setup.word_fn = std::move(*words);
  return setup;
}

// Shape printing/comparison/JSON live in collector/shapes_io.h, shared
// with the daemon and loadgen binaries.
using collector::PrintShapes;
using collector::SameShapes;
using collector::ShapesJson;

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  // SIGINT/SIGTERM mid-protocol: stop producing reports, drain the
  // queues, record the partial round, still write --json, exit 3.
  InstallShutdownHandler();
  auto fail = [](const Status& status) {
    std::cerr << "privshape_collector: " << status << "\n";
    return 1;
  };
  // Every flag is read here, before any work, so a malformed value or a
  // flag no lookup reads fails fast, naming the flag.
  auto users_flag = args.GetCount("users", 100000);
  auto shards_flag = args.GetCount("shards", 0);
  auto batch_flag = args.GetCount("batch-size", 256);
  auto queue_flag = args.GetCount(
      "queue-depth",
      static_cast<int>(collector::CollectorOptions{}.queue_depth));
  FleetFlags fleet_flags;
  fleet_flags.dataset = args.GetString("dataset", "trace");
  auto config = collector::MechanismConfigFromArgs(
      args, DefaultsFor(fleet_flags.dataset));
  fleet_flags.csv = args.GetString("csv", "");
  fleet_flags.labels_file = args.GetString("labels", "");
  auto label_column = args.GetCount("label-column", 0);
  size_t threads = ThreadsFromArgs(args);
  bool check_determinism = args.Has("check-determinism");
  std::string trace_file = args.GetString("trace", "");
  std::string json = args.GetString("json", "");
  for (const auto* flag :
       {&users_flag, &shards_flag, &batch_flag, &queue_flag, &label_column}) {
    if (!flag->ok()) return fail(flag->status());
  }
  if (!config.ok()) return fail(config.status());
  Status unread = args.CheckAllRead();
  if (!unread.ok()) return fail(unread);

  collector::CollectorOptions options;
  size_t users = *users_flag;
  options.num_shards = *shards_flag;
  options.batch_size = *batch_flag;
  options.queue_depth = *queue_flag;
  if (args.Has("label-column")) {
    fleet_flags.label_column = static_cast<int>(*label_column);
  }
  auto setup = BuildSetup(fleet_flags, *config);
  if (!setup.ok()) return fail(setup.status());

  ThreadPool pool(threads);
  collector::ClientFleet fleet(users, setup->word_fn, config->metric,
                               config->seed, setup->label_fn);
  bool labeled = config->num_classes > 0;
  std::vector<Sequence> words;
  std::vector<int> labels;
  if (check_determinism) {
    // The check needs every word materialized anyway (the core reference
    // runs on them), so synthesize each word exactly ONCE up front and
    // serve all runs — the primary one included — from the materialized
    // fleet, instead of re-synthesizing per session and again for the
    // reference. FromWords tiles the captured list, so sessions move a
    // plain copy of the word, never re-run the generator.
    std::printf("determinism check: materializing %zu words...\n", users);
    words = fleet.MaterializeWords();
    labels = fleet.MaterializeLabels();
    fleet = collector::ClientFleet::FromWords(words, users,
                                              config->metric,
                                              config->seed, labels);
  }

  // --trace FILE: per-round spans across the protocol, written as
  // chrome://tracing JSON on exit.
  telemetry::ScopedTraceFile trace(trace_file);

  std::printf(
      "privshape_collector: %s, %zu users, %zu threads, %zu shards, "
      "queue depth %zu\n",
      setup->description.c_str(), users, pool.num_threads(),
      options.num_shards > 0 ? options.num_shards : pool.num_threads(),
      options.queue_depth);
  collector::CollectorMetrics metrics;
  auto result = collector::RoundCoordinator(*config, options, &pool)
                    .Collect(fleet, &metrics);
  if (!result.ok()) {
    std::cerr << "privshape_collector: " << result.status() << "\n";
    if (result.status().code() != StatusCode::kCancelled) return 1;
    // Graceful shutdown: the run was abandoned, not failed — the rounds
    // recorded so far still make a usable metrics artifact.
    if (!json.empty()) {
      Status written = collector::WriteJsonFile(metrics.ToJson(), json);
      if (!written.ok()) return fail(written);
      std::printf("metrics written to %s\n", json.c_str());
    }
    return 3;
  }
  PrintShapes(*result, labeled);
  std::printf("\n%-10s %10s %10s %10s %12s %10s\n", "stage", "users",
              "accepted", "rejected", "accepted/s", "seconds");
  for (const auto& round : metrics.rounds) {
    std::printf("%-10s %10zu %10zu %10zu %12.0f %10.3f\n",
                round.stage.c_str(), round.users, round.accepted,
                round.rejected, round.AcceptedPerSec(), round.seconds);
  }
  std::printf("total: %zu accepted reports in %.3fs (%.0f accepted/s)\n",
              metrics.TotalAccepted(), metrics.total_seconds,
              metrics.TotalAcceptedPerSec());

  if (!json.empty()) {
    JsonValue doc = metrics.ToJson();
    doc.Set("shapes", ShapesJson(*result, labeled));
    Status written = collector::WriteJsonFile(doc, json);
    if (!written.ok()) return fail(written);
    std::printf("metrics written to %s\n", json.c_str());
  }

  if (check_determinism) {
    // Contract: byte-identical shapes vs. the single-threaded core
    // pipeline on the same words — at queue depths {1, 8, default} and
    // for shard counts {1, 4, 16}. `fleet` is already the materialized
    // word list, so the reference and every re-run below reuse the one
    // synthesis pass from above.
    core::PrivShape reference(*config);
    auto expected = reference.Run(words, labeled ? &labels : nullptr);
    if (!expected.ok()) {
      std::cerr << "privshape_collector: core pipeline failed: "
                << expected.status() << "\n";
      return 1;
    }
    bool all_ok = SameShapes(*expected, *result);
    std::printf("\n  collector(run) == core: %s\n",
                all_ok ? "OK" : "MISMATCH");
    auto check = [&](const collector::CollectorOptions& opt,
                     const std::string& label) {
      auto got = collector::RoundCoordinator(*config, opt, &pool)
                     .Collect(fleet);
      bool ok = got.ok() && SameShapes(*expected, *got);
      std::printf("  collector(%s) == core: %s\n", label.c_str(),
                  ok ? "OK" : "MISMATCH");
      all_ok = all_ok && ok;
    };
    std::vector<size_t> depths = {size_t{1}, size_t{8},
                                  collector::CollectorOptions{}.queue_depth};
    depths.erase(std::unique(depths.begin(), depths.end()), depths.end());
    for (size_t depth : depths) {
      collector::CollectorOptions opt = options;
      opt.queue_depth = depth;
      check(opt, "queue-depth=" + std::to_string(depth));
    }
    for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
      collector::CollectorOptions opt = options;
      opt.num_shards = shards;
      check(opt, "shards=" + std::to_string(shards));
    }
    if (!all_ok) {
      std::cerr << "privshape_collector: determinism contract VIOLATED\n";
      return 2;
    }
    std::printf("determinism contract holds\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
