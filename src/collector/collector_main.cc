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
  core::MechanismConfig config;
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

Result<FleetSetup> BuildSetup(const CliArgs& args) {
  FleetSetup setup;
  // Strict parsing: a typo'd numeric flag ("--epsilon 2,5") must fail
  // loudly, not silently run the default experiment.
  auto seed_flag = args.GetIntStatus("seed", 2023);
  if (!seed_flag.ok()) return seed_flag.status();
  uint64_t seed = static_cast<uint64_t>(*seed_flag);
  std::string dataset = args.GetString("dataset", "trace");
  bool symbols = dataset == "symbols";

  // Paper-default mechanism configs (§V-B3), shared with the daemon and
  // loadgen so a dataset name means the same mechanism everywhere. Any
  // dataset name other than "symbols" keeps the trace defaults (a --csv
  // run may name its dataset freely).
  auto base =
      collector::GeneratedDatasetConfig(symbols ? "symbols" : "trace");
  if (!base.ok()) return base.status();
  core::MechanismConfig config = *base;
  auto epsilon = args.GetDoubleStatus("epsilon", 4.0);
  if (!epsilon.ok()) return epsilon.status();
  config.epsilon = *epsilon;
  config.seed = seed;
  auto k = args.GetIntStatus("k", config.k);
  if (!k.ok()) return k.status();
  config.k = *k;
  auto c = args.GetIntStatus("c", config.c);
  if (!c.ok()) return c.status();
  config.c = *c;

  // Classification: --num-classes N > 0 switches the refinement round to
  // P_e (OUE over candidate x class cells) and requires per-user labels.
  auto classes_flag = args.GetIntStatus("num_classes", 0);
  if (!classes_flag.ok()) return classes_flag.status();
  classes_flag = args.GetIntStatus("num-classes", *classes_flag);
  if (!classes_flag.ok()) return classes_flag.status();
  if (*classes_flag < 0) {
    return Status::InvalidArgument("--num-classes must be >= 0, got " +
                                   std::to_string(*classes_flag));
  }
  config.num_classes = *classes_flag;
  setup.config = config;

  std::string labels_file = args.GetString("labels", "");
  auto label_column_flag = args.GetIntStatus("label_column", -1);
  if (!label_column_flag.ok()) return label_column_flag.status();
  label_column_flag = args.GetIntStatus("label-column", *label_column_flag);
  if (!label_column_flag.ok()) return label_column_flag.status();
  int label_column = *label_column_flag;
  if (label_column < 0 &&
      (args.Has("label-column") || args.Has("label_column"))) {
    return Status::InvalidArgument("--label-column must be >= 0, got " +
                                   std::to_string(label_column));
  }
  if ((!labels_file.empty() || label_column >= 0) &&
      config.num_classes == 0) {
    return Status::InvalidArgument(
        "--labels/--label-column require --num-classes > 0");
  }
  if (!labels_file.empty() && label_column >= 0) {
    return Status::InvalidArgument(
        "--labels and --label-column are mutually exclusive");
  }

  std::string csv = args.GetString("csv", "");
  if (!csv.empty()) {
    auto rows = ReadCsvDoubles(csv);
    if (!rows.ok()) return rows.status();
    if (rows->empty()) {
      return Status::InvalidArgument("CSV dataset is empty: " + csv);
    }
    std::vector<int> labels;
    if (config.num_classes > 0) {
      if (label_column >= 0) {
        auto extracted =
            ExtractLabelColumn(&*rows, label_column, config.num_classes);
        if (!extracted.ok()) return extracted.status();
        labels = std::move(*extracted);
      } else if (!labels_file.empty()) {
        auto text = ReadFileToString(labels_file);
        if (!text.ok()) return text.status();
        auto parsed = collector::ParseLabelsCsv(*text, config.num_classes);
        if (!parsed.ok()) return parsed.status();
        labels = std::move(*parsed);
        if (labels.size() != rows->size()) {
          return Status::InvalidArgument(
              labels_file + " has " + std::to_string(labels.size()) +
              " labels for " + std::to_string(rows->size()) + " CSV rows");
        }
      } else {
        return Status::InvalidArgument(
            "--num-classes with --csv requires --labels FILE or "
            "--label-column N");
      }
    }
    core::TransformOptions transform;
    transform.t = config.t;
    transform.w = symbols ? 25 : 10;
    std::vector<Sequence> words;
    words.reserve(rows->size());
    for (size_t i = 0; i < rows->size(); ++i) {
      auto word = core::TransformSeries((*rows)[i], transform);
      if (!word.ok()) {
        // Fail loudly: a fleet of placeholder words would "succeed" end
        // to end while never ingesting the dataset.
        return Status::InvalidArgument(
            "CSV row " + std::to_string(i) + " of " + csv +
            " cannot be transformed (" + word.status().ToString() + ")");
      }
      words.push_back(std::move(*word));
    }
    setup.description = "csv:" + csv;
    // Tile the CSV rows (and their labels, same modulo) across the
    // requested fleet size.
    setup.word_fn = collector::ClientFleet::TiledWords(std::move(words));
    setup.label_fn = collector::ClientFleet::TiledLabels(std::move(labels));
    return setup;
  }

  if (!labels_file.empty() || label_column >= 0) {
    return Status::InvalidArgument(
        "--labels/--label-column require --csv (generated fleets label "
        "themselves)");
  }
  auto words = collector::GeneratedWordSource(dataset, seed);
  if (!words.ok()) return words.status();
  if (config.num_classes > 0) {
    // Generated fleets are self-labeling: user u's instance is synthesized
    // from class u % dataset-classes. Reject a class count the synthesized
    // labels would overflow — at setup, not deep inside the P_e round.
    auto dataset_classes = collector::GeneratedNumClasses(dataset);
    if (!dataset_classes.ok()) return dataset_classes.status();
    if (config.num_classes < *dataset_classes) {
      return Status::OutOfRange(
          "generated dataset '" + dataset + "' has " +
          std::to_string(*dataset_classes) +
          " classes; --num-classes must be >= that (got " +
          std::to_string(config.num_classes) + ")");
    }
    auto labels = collector::GeneratedLabelSource(dataset);
    if (!labels.ok()) return labels.status();
    setup.label_fn = std::move(*labels);
  }
  setup.description = "generated:" + dataset;
  setup.word_fn = std::move(*words);
  return setup;
}

// Shape printing/comparison/JSON live in collector/shapes_io.h, shared
// with the daemon and loadgen binaries.
using collector::PrintShapes;
using collector::SameShapes;
using collector::ShapesJson;

/// Non-negative flag value, parsed strictly: malformed or negative input
/// is an InvalidArgument (which Main turns into a fatal CLI error), never
/// a silent fallback or a wrap through size_t to ~2^64.
Result<size_t> GetCount(const CliArgs& args, const std::string& name,
                        int def) {
  auto value = args.GetIntStatus(name, def);
  if (!value.ok()) return value.status();
  if (*value < 0) {
    return Status::InvalidArgument("--" + name + " must be >= 0");
  }
  return static_cast<size_t>(*value);
}

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  // SIGINT/SIGTERM mid-protocol: stop producing reports, drain the
  // queues, record the partial round, still write --json, exit 3.
  InstallShutdownHandler();
  collector::CollectorOptions options;
  // Fail fast on any malformed count flag, naming the flag. The dashed
  // and underscored spellings of the batch/queue flags are aliases
  // (the dashed form wins when both are given).
  auto users_flag = GetCount(args, "users", 100000);
  auto shards_flag = GetCount(args, "shards", 0);
  auto batch_flag = GetCount(args, "batch_size", 256);
  auto queue_flag = GetCount(args, "queue_depth",
                             collector::CollectorOptions{}.queue_depth);
  for (const auto* flag :
       {&users_flag, &shards_flag, &batch_flag, &queue_flag}) {
    if (!flag->ok()) {
      std::cerr << "privshape_collector: " << flag->status() << "\n";
      return 1;
    }
  }
  batch_flag = GetCount(args, "batch-size", static_cast<int>(*batch_flag));
  queue_flag = GetCount(args, "queue-depth", static_cast<int>(*queue_flag));
  if (!batch_flag.ok() || !queue_flag.ok()) {
    std::cerr << "privshape_collector: "
              << (!batch_flag.ok() ? batch_flag.status()
                                   : queue_flag.status())
              << "\n";
    return 1;
  }
  size_t users = *users_flag;
  options.num_shards = *shards_flag;
  options.batch_size = *batch_flag;
  options.queue_depth = *queue_flag;
  size_t threads = ThreadsFromArgs(args);

  auto setup = BuildSetup(args);
  if (!setup.ok()) {
    std::cerr << "privshape_collector: " << setup.status() << "\n";
    return 1;
  }

  ThreadPool pool(threads);
  collector::ClientFleet fleet(users, setup->word_fn, setup->config.metric,
                               setup->config.seed, setup->label_fn);
  bool labeled = setup->config.num_classes > 0;
  bool check_determinism =
      args.Has("check-determinism") || args.Has("check_determinism");
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
                                              setup->config.metric,
                                              setup->config.seed, labels);
  }

  // --trace FILE: per-round spans across the protocol, written as
  // chrome://tracing JSON on exit.
  telemetry::ScopedTraceFile trace(args.GetString("trace", ""));

  std::printf(
      "privshape_collector: %s, %zu users, %zu threads, %zu shards, "
      "queue depth %zu\n",
      setup->description.c_str(), users, pool.num_threads(),
      options.num_shards > 0 ? options.num_shards : pool.num_threads(),
      options.queue_depth);
  collector::CollectorMetrics metrics;
  auto result = collector::RoundCoordinator(setup->config, options, &pool)
                    .Collect(fleet, &metrics);
  if (!result.ok()) {
    std::cerr << "privshape_collector: " << result.status() << "\n";
    if (result.status().code() != StatusCode::kCancelled) return 1;
    // Graceful shutdown: the run was abandoned, not failed — the rounds
    // recorded so far still make a usable metrics artifact.
    std::string cancel_json = args.GetString("json", "");
    if (!cancel_json.empty()) {
      Status written =
          collector::WriteJsonFile(metrics.ToJson(), cancel_json);
      if (!written.ok()) {
        std::cerr << "privshape_collector: " << written << "\n";
        return 1;
      }
      std::printf("metrics written to %s\n", cancel_json.c_str());
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

  std::string json = args.GetString("json", "");
  if (!json.empty()) {
    JsonValue doc = metrics.ToJson();
    doc.Set("shapes", ShapesJson(*result, labeled));
    Status written = collector::WriteJsonFile(doc, json);
    if (!written.ok()) {
      std::cerr << "privshape_collector: " << written << "\n";
      return 1;
    }
    std::printf("metrics written to %s\n", json.c_str());
  }

  if (check_determinism) {
    // Contract: byte-identical shapes vs. the single-threaded core
    // pipeline on the same words — at queue depths {1, 8, default} and
    // for shard counts {1, 4, 16}. `fleet` is already the materialized
    // word list, so the reference and every re-run below reuse the one
    // synthesis pass from above.
    core::PrivShape reference(setup->config);
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
      auto got = collector::RoundCoordinator(setup->config, opt, &pool)
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
