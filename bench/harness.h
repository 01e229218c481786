#ifndef PRIVSHAPE_BENCH_HARNESS_H_
#define PRIVSHAPE_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/json.h"
#include "core/baseline.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "core/privshape.h"
#include "eval/shape_matching.h"
#include "series/time_series.h"

namespace privshape::bench {

/// Scale knobs shared by every bench binary. The paper runs 40,000 users
/// and 500 trials on a 20-core Xeon; defaults here are laptop-sized and
/// raised with --users/--trials/--threads (or PRIVSHAPE_USERS /
/// PRIVSHAPE_TRIALS / PRIVSHAPE_THREADS).
struct ExperimentScale {
  size_t users = 3000;
  int trials = 3;
  uint64_t seed = 2023;
  size_t threads = 0;  ///< worker threads; 0 = hardware concurrency
};

ExperimentScale ScaleFromArgs(const CliArgs& args,
                              size_t default_users = 3000,
                              int default_trials = 3);

/// Distances between extracted shapes and ground truth, averaged over
/// ground-truth shapes after greedy nearest matching by DTW — the
/// quantitative measures of Tables III/IV.
struct ShapeQuality {
  double dtw = 0.0;
  double sed = 0.0;
  double euclidean = 0.0;
};

/// Ground-truth shapes: the per-class mean of the clean dataset pushed
/// through the same Compressive-SAX transform ("Ground Truth and
/// PatternLDP are also pre-processed by Compressive SAX", §V-E).
std::vector<eval::LabeledShape> GroundTruthShapes(
    const series::Dataset& dataset, const core::TransformOptions& transform);

ShapeQuality MeasureShapeQuality(
    const std::vector<Sequence>& extracted,
    const std::vector<eval::LabeledShape>& ground_truth);

/// One mechanism run on a clustering task.
struct ClusteringOutcome {
  double ari = 0.0;
  ShapeQuality quality;
  std::vector<Sequence> shapes;
  double seconds = 0.0;
};

/// One mechanism run on a classification task.
struct ClassificationOutcome {
  double accuracy = 0.0;
  ShapeQuality quality;
  std::vector<eval::LabeledShape> shapes;
  double seconds = 0.0;
};

/// PrivShape / baseline clustering: extract shapes, assign every sequence
/// to its nearest shape, score ARI against the true labels (§V-C).
ClusteringOutcome RunPrivShapeClustering(
    const series::Dataset& dataset, const core::TransformOptions& transform,
    const core::MechanismConfig& config);
ClusteringOutcome RunBaselineClustering(
    const series::Dataset& dataset, const core::TransformOptions& transform,
    const core::MechanismConfig& config);

/// PatternLDP + KMeans clustering on the perturbed numeric series; shape
/// quality comes from the KMeans centroids pushed through Compressive SAX.
struct PatternLdpBenchOptions {
  double epsilon = 4.0;
  int kmeans_restarts = 2;
  int kmeans_max_iterations = 60;
  int rf_trees = 15;
  int rf_feature_paa = 10;  ///< PAA segment length for RF features
  uint64_t seed = 2023;
};

ClusteringOutcome RunPatternLdpKMeansClustering(
    const series::Dataset& dataset, const core::TransformOptions& transform,
    const PatternLdpBenchOptions& options, int k);

/// Classification runners (train/test protocol of §V-E).
ClassificationOutcome RunPrivShapeClassification(
    const series::Dataset& train, const series::Dataset& test,
    const core::TransformOptions& transform,
    const core::MechanismConfig& config);
ClassificationOutcome RunBaselineClassification(
    const series::Dataset& train, const series::Dataset& test,
    const core::TransformOptions& transform,
    const core::MechanismConfig& config);
ClassificationOutcome RunPatternLdpRfClassification(
    const series::Dataset& train, const series::Dataset& test,
    const PatternLdpBenchOptions& options, int num_classes);

/// Paper-default configurations: collector::GeneratedTransform and
/// collector::GeneratedDatasetConfig of "symbols"/"trace".
core::TransformOptions SymbolsTransform();
core::TransformOptions TraceTransform();
core::MechanismConfig SymbolsConfig(double epsilon, uint64_t seed);
core::MechanismConfig TraceConfig(double epsilon, uint64_t seed);

/// Console table helpers (markdown-ish, matching the paper's row layout).
void PrintTitle(const std::string& title);
void PrintHeader(const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);

/// Opens `<PRIVSHAPE_CSV_DIR>/<name>.csv` when the env var is set;
/// otherwise returns nullptr (callers skip CSV output).
std::unique_ptr<CsvWriter> MaybeCsv(const std::string& name);

/// Machine-readable bench output: one {benchmark, params, metrics} record
/// per measured configuration, flushed as a JSON array. This is the
/// BENCH_*.json format tracking the repo's perf trajectory across PRs.
class JsonBenchWriter {
 public:
  explicit JsonBenchWriter(std::string path);

  /// Appends one record. Param values are strings (they name the swept
  /// configuration); metric values are numbers.
  void AddRecord(
      const std::string& benchmark,
      const std::vector<std::pair<std::string, std::string>>& params,
      const std::vector<std::pair<std::string, double>>& metrics);

  /// Run-wide facts that hold for every record (e.g. the machine's
  /// hardware_concurrency). Setting any meta switches the file format
  /// from a bare record array to {"meta": {...}, "records": [...]} —
  /// benches that never call SetMeta keep the legacy array shape.
  void SetMeta(const std::string& key, const std::string& value);
  void SetMeta(const std::string& key, uint64_t value);

  /// Writes the file; returns false on I/O failure. Called by the
  /// destructor, but call it explicitly to observe errors.
  bool Flush();

  ~JsonBenchWriter();

 private:
  std::string path_;
  JsonValue meta_;
  JsonValue records_;
  bool flushed_ = false;
};

/// JSON writer for `--json <path>` (env PRIVSHAPE_JSON). Returns nullptr
/// when neither is set: a bench writes JSON only when asked, so a plain
/// run never overwrites a committed baseline.
std::unique_ptr<JsonBenchWriter> MaybeJson(const CliArgs& args);

}  // namespace privshape::bench

#endif  // PRIVSHAPE_BENCH_HARNESS_H_
