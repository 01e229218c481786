#include "bench/harness.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>

#include "collector/client_fleet.h"
#include "common/math_utils.h"
#include "core/classification.h"
#include "distance/distance.h"
#include "eval/ari.h"
#include "eval/kmeans.h"
#include "eval/random_forest.h"
#include "patternldp/pattern_ldp.h"
#include "sax/paa.h"

namespace privshape::bench {

namespace {

/// Shared worker pool: per-user perturbation is embarrassingly parallel
/// ("we treat all the users' operations concurrently", §V-F). Sized by
/// PRIVSHAPE_THREADS when set (the shared --threads knob), otherwise
/// hardware concurrency.
ThreadPool& SharedPool() {
  static ThreadPool pool([] {
    const char* env = std::getenv("PRIVSHAPE_THREADS");
    if (env != nullptr) {
      int v = std::atoi(env);
      if (v > 0) return static_cast<size_t>(v);
    }
    return size_t{0};
  }());
  return pool;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> TrueLabels(const series::Dataset& dataset) {
  std::vector<int> labels;
  labels.reserve(dataset.size());
  for (const auto& inst : dataset.instances) labels.push_back(inst.label);
  return labels;
}

/// ARI of assigning each sequence to its nearest extracted shape.
double ShapeAssignmentAri(const std::vector<Sequence>& sequences,
                          const std::vector<Sequence>& shapes,
                          const std::vector<int>& truth,
                          dist::Metric metric) {
  auto assignments = eval::AssignToNearestShape(sequences, shapes, metric);
  if (!assignments.ok()) return 0.0;
  auto ari = eval::AdjustedRandIndex(truth, *assignments);
  return ari.ok() ? *ari : 0.0;
}

std::vector<std::vector<double>> RfFeatures(const series::Dataset& dataset,
                                            int paa_w) {
  std::vector<std::vector<double>> out;
  out.reserve(dataset.size());
  for (const auto& inst : dataset.instances) {
    auto paa = sax::PiecewiseAggregate(inst.values, paa_w);
    out.push_back(paa.ok() ? *paa : inst.values);
  }
  return out;
}

}  // namespace

ExperimentScale ScaleFromArgs(const CliArgs& args, size_t default_users,
                              int default_trials) {
  ExperimentScale scale;
  scale.users = static_cast<size_t>(
      args.GetInt("users", static_cast<int>(default_users)));
  scale.trials = args.GetInt("trials", default_trials);
  scale.seed = static_cast<uint64_t>(args.GetInt("seed", 2023));
  scale.threads = ThreadsFromArgs(args);
  if (args.Has("threads")) {
    // Re-export so the resolved value also reaches SharedPool(), which is
    // created lazily on first use (always after ScaleFromArgs in bench
    // mains) and reads PRIVSHAPE_THREADS. Flags beat env vars, so an
    // explicit --threads=0 ("hardware") overwrites a stale env value too.
    setenv("PRIVSHAPE_THREADS", std::to_string(scale.threads).c_str(), 1);
  }
  return scale;
}

std::vector<eval::LabeledShape> GroundTruthShapes(
    const series::Dataset& dataset,
    const core::TransformOptions& transform) {
  std::vector<eval::LabeledShape> shapes;
  for (int label : dataset.Labels()) {
    auto members = dataset.FilterByLabel(label);
    if (members.empty()) continue;
    // Per-class mean series (all instances share a length per dataset).
    std::vector<double> mean(members.instances[0].values.size(), 0.0);
    for (const auto& inst : members.instances) {
      for (size_t i = 0; i < mean.size(); ++i) mean[i] += inst.values[i];
    }
    for (double& v : mean) v /= static_cast<double>(members.size());
    auto word = core::TransformSeries(mean, transform);
    if (word.ok()) shapes.push_back({*word, label});
  }
  return shapes;
}

ShapeQuality MeasureShapeQuality(
    const std::vector<Sequence>& extracted,
    const std::vector<eval::LabeledShape>& ground_truth) {
  ShapeQuality quality;
  if (extracted.empty() || ground_truth.empty()) {
    quality.dtw = quality.sed = quality.euclidean =
        std::numeric_limits<double>::quiet_NaN();
    return quality;
  }
  // Greedy matching: each ground-truth shape to its DTW-nearest extraction
  // (the paper matches centers by DTW distance, Figs. 8/10).
  for (const auto& gt : ground_truth) {
    double best = std::numeric_limits<double>::infinity();
    size_t match = 0;
    for (size_t i = 0; i < extracted.size(); ++i) {
      double d = dist::DtwSymbolic(gt.shape, extracted[i]);
      if (d < best) {
        best = d;
        match = i;
      }
    }
    quality.dtw += best;
    quality.sed += dist::EditDistance(gt.shape, extracted[match]);
    quality.euclidean += dist::EuclideanSymbolic(gt.shape, extracted[match]);
  }
  double n = static_cast<double>(ground_truth.size());
  quality.dtw /= n;
  quality.sed /= n;
  quality.euclidean /= n;
  return quality;
}

// The paper defaults live once, in collector's generated-dataset helpers;
// the two dataset names below are the only ones they accept.

core::TransformOptions SymbolsTransform() {
  return *collector::GeneratedTransform("symbols");
}

core::TransformOptions TraceTransform() {
  return *collector::GeneratedTransform("trace");
}

core::MechanismConfig SymbolsConfig(double epsilon, uint64_t seed) {
  core::MechanismConfig config = *collector::GeneratedDatasetConfig("symbols");
  config.epsilon = epsilon;
  config.seed = seed;
  return config;
}

core::MechanismConfig TraceConfig(double epsilon, uint64_t seed) {
  core::MechanismConfig config = *collector::GeneratedDatasetConfig("trace");
  config.epsilon = epsilon;
  config.seed = seed;
  return config;
}

ClusteringOutcome RunPrivShapeClustering(
    const series::Dataset& dataset, const core::TransformOptions& transform,
    const core::MechanismConfig& config) {
  ClusteringOutcome outcome;
  auto sequences = core::TransformDataset(dataset, transform);
  if (!sequences.ok()) return outcome;
  double start = Now();
  core::PrivShape mech(config);
  auto result = mech.Run(*sequences);
  outcome.seconds = Now() - start;
  if (!result.ok()) return outcome;
  for (const auto& s : result->shapes) outcome.shapes.push_back(s.shape);
  outcome.ari = ShapeAssignmentAri(*sequences, outcome.shapes,
                                   TrueLabels(dataset), config.metric);
  outcome.quality = MeasureShapeQuality(outcome.shapes,
                                        GroundTruthShapes(dataset, transform));
  return outcome;
}

ClusteringOutcome RunBaselineClustering(
    const series::Dataset& dataset, const core::TransformOptions& transform,
    const core::MechanismConfig& config) {
  ClusteringOutcome outcome;
  auto sequences = core::TransformDataset(dataset, transform);
  if (!sequences.ok()) return outcome;
  double start = Now();
  core::BaselineMechanism mech(config);
  auto result = mech.Run(*sequences);
  outcome.seconds = Now() - start;
  if (!result.ok()) return outcome;
  for (const auto& s : result->shapes) outcome.shapes.push_back(s.shape);
  outcome.ari = ShapeAssignmentAri(*sequences, outcome.shapes,
                                   TrueLabels(dataset), config.metric);
  outcome.quality = MeasureShapeQuality(outcome.shapes,
                                        GroundTruthShapes(dataset, transform));
  return outcome;
}

ClusteringOutcome RunPatternLdpKMeansClustering(
    const series::Dataset& dataset, const core::TransformOptions& transform,
    const PatternLdpBenchOptions& options, int k) {
  ClusteringOutcome outcome;
  pldp::PatternLdpConfig pl_config;
  pl_config.epsilon = options.epsilon;
  auto mech = pldp::PatternLdp::Create(pl_config);
  if (!mech.ok()) return outcome;
  double start = Now();
  auto perturbed =
      mech->PerturbDatasetParallel(dataset, &SharedPool(), options.seed);
  if (!perturbed.ok()) return outcome;

  std::vector<std::vector<double>> points;
  points.reserve(perturbed->size());
  for (const auto& inst : perturbed->instances) points.push_back(inst.values);
  eval::KMeansOptions km;
  km.k = k;
  km.n_init = options.kmeans_restarts;
  km.max_iterations = options.kmeans_max_iterations;
  km.seed = options.seed;
  auto result = eval::KMeans(points, km);
  outcome.seconds = Now() - start;
  if (!result.ok()) return outcome;

  auto ari = eval::AdjustedRandIndex(TrueLabels(dataset),
                                     result->assignments);
  outcome.ari = ari.ok() ? *ari : 0.0;
  // Shape quality of the KMeans centroids after Compressive SAX.
  for (const auto& centroid : result->centroids) {
    auto word = core::TransformSeries(centroid, transform);
    if (word.ok()) outcome.shapes.push_back(*word);
  }
  outcome.quality = MeasureShapeQuality(outcome.shapes,
                                        GroundTruthShapes(dataset, transform));
  return outcome;
}

ClassificationOutcome RunPrivShapeClassification(
    const series::Dataset& train, const series::Dataset& test,
    const core::TransformOptions& transform,
    const core::MechanismConfig& config) {
  ClassificationOutcome outcome;
  auto train_seqs = core::TransformDataset(train, transform);
  auto test_seqs = core::TransformDataset(test, transform);
  if (!train_seqs.ok() || !test_seqs.ok()) return outcome;
  std::vector<int> train_labels = TrueLabels(train);
  double start = Now();
  core::PrivShape mech(config);
  auto shapes = core::PrivShapeLabeledShapes(mech, *train_seqs, train_labels);
  outcome.seconds = Now() - start;
  if (!shapes.ok()) return outcome;
  outcome.shapes = *shapes;
  auto clf = eval::NearestShapeClassifier::Create(*shapes, config.metric);
  if (!clf.ok()) return outcome;
  auto acc = eval::Accuracy(TrueLabels(test), clf->ClassifyBatch(*test_seqs));
  outcome.accuracy = acc.ok() ? *acc : 0.0;
  std::vector<Sequence> raw;
  for (const auto& s : outcome.shapes) raw.push_back(s.shape);
  outcome.quality =
      MeasureShapeQuality(raw, GroundTruthShapes(train, transform));
  return outcome;
}

ClassificationOutcome RunBaselineClassification(
    const series::Dataset& train, const series::Dataset& test,
    const core::TransformOptions& transform,
    const core::MechanismConfig& config) {
  ClassificationOutcome outcome;
  auto train_seqs = core::TransformDataset(train, transform);
  auto test_seqs = core::TransformDataset(test, transform);
  if (!train_seqs.ok() || !test_seqs.ok()) return outcome;
  std::vector<int> train_labels = TrueLabels(train);
  int num_classes = static_cast<int>(train.Labels().size());
  double start = Now();
  core::BaselineMechanism mech(config);
  auto shapes = core::ExtractShapesPerClass(mech, *train_seqs, train_labels,
                                            num_classes,
                                            /*shapes_per_class=*/1);
  outcome.seconds = Now() - start;
  if (!shapes.ok()) return outcome;
  outcome.shapes = *shapes;
  auto clf = eval::NearestShapeClassifier::Create(*shapes, config.metric);
  if (!clf.ok()) return outcome;
  auto acc = eval::Accuracy(TrueLabels(test), clf->ClassifyBatch(*test_seqs));
  outcome.accuracy = acc.ok() ? *acc : 0.0;
  std::vector<Sequence> raw;
  for (const auto& s : outcome.shapes) raw.push_back(s.shape);
  outcome.quality =
      MeasureShapeQuality(raw, GroundTruthShapes(train, transform));
  return outcome;
}

ClassificationOutcome RunPatternLdpRfClassification(
    const series::Dataset& train, const series::Dataset& test,
    const PatternLdpBenchOptions& options, int num_classes) {
  (void)num_classes;
  ClassificationOutcome outcome;
  pldp::PatternLdpConfig pl_config;
  pl_config.epsilon = options.epsilon;
  auto mech = pldp::PatternLdp::Create(pl_config);
  if (!mech.ok()) return outcome;
  double start = Now();
  auto perturbed =
      mech->PerturbDatasetParallel(train, &SharedPool(), options.seed);
  if (!perturbed.ok()) return outcome;

  auto train_x = RfFeatures(*perturbed, options.rf_feature_paa);
  auto test_x = RfFeatures(test, options.rf_feature_paa);
  eval::RandomForest::Options rf;
  rf.num_trees = options.rf_trees;
  rf.seed = options.seed;
  auto forest = eval::RandomForest::Fit(train_x, TrueLabels(*perturbed), rf);
  outcome.seconds = Now() - start;
  if (!forest.ok()) return outcome;
  auto acc = eval::Accuracy(TrueLabels(test), forest->PredictBatch(test_x));
  outcome.accuracy = acc.ok() ? *acc : 0.0;
  return outcome;
}

void PrintTitle(const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
}

void PrintHeader(const std::vector<std::string>& columns) {
  PrintRow(columns);
  std::string sep;
  for (size_t i = 0; i < columns.size(); ++i) {
    sep += (i ? " | " : "") + std::string(12, '-');
  }
  std::cout << sep << "\n";
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i) std::cout << " | ";
    std::cout << cells[i];
    if (cells[i].size() < 12) std::cout << std::string(12 - cells[i].size(), ' ');
  }
  std::cout << "\n";
}

std::unique_ptr<CsvWriter> MaybeCsv(const std::string& name) {
  const char* dir = std::getenv("PRIVSHAPE_CSV_DIR");
  if (dir == nullptr) return nullptr;
  auto writer = std::make_unique<CsvWriter>(std::string(dir) + "/" + name +
                                            ".csv");
  return writer->ok() ? std::move(writer) : nullptr;
}

JsonBenchWriter::JsonBenchWriter(std::string path)
    : path_(std::move(path)),
      meta_(JsonValue::Object()),
      records_(JsonValue::Array()) {}

void JsonBenchWriter::SetMeta(const std::string& key,
                              const std::string& value) {
  meta_.Set(key, JsonValue::Str(value));
}

void JsonBenchWriter::SetMeta(const std::string& key, uint64_t value) {
  meta_.Set(key, JsonValue::Uint(value));
}

void JsonBenchWriter::AddRecord(
    const std::string& benchmark,
    const std::vector<std::pair<std::string, std::string>>& params,
    const std::vector<std::pair<std::string, double>>& metrics) {
  JsonValue record = JsonValue::Object();
  record.Set("benchmark", JsonValue::Str(benchmark));
  JsonValue p = JsonValue::Object();
  for (const auto& [key, value] : params) p.Set(key, JsonValue::Str(value));
  record.Set("params", std::move(p));
  JsonValue m = JsonValue::Object();
  for (const auto& [key, value] : metrics) m.Set(key, JsonValue::Num(value));
  record.Set("metrics", std::move(m));
  records_.Push(std::move(record));
  flushed_ = false;
}

bool JsonBenchWriter::Flush() {
  std::ofstream out(path_);
  if (!out.is_open()) return false;
  if (meta_.size() > 0) {
    JsonValue doc = JsonValue::Object();
    doc.Set("meta", meta_);
    doc.Set("records", records_);
    out << doc.Dump(2);
  } else {
    out << records_.Dump(2);
  }
  flushed_ = out.good();
  return flushed_;
}

JsonBenchWriter::~JsonBenchWriter() {
  // Never clobber an existing baseline with an empty array: a bench that
  // errored out before recording anything leaves the old file intact.
  if (!flushed_ && records_.size() > 0) Flush();
}

std::unique_ptr<JsonBenchWriter> MaybeJson(const CliArgs& args,
                                           const std::string& default_path) {
  std::string path = args.GetString("json", default_path);
  if (path.empty()) return nullptr;
  return std::make_unique<JsonBenchWriter>(path);
}

}  // namespace privshape::bench
