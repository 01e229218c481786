// Device-state classification (the paper's Trace workload) — served over
// the wire.
//
// A fleet of monitoring devices reports transient signatures: level
// shifts, overshooting ramps, damped oscillations. Labels are sensitive
// too, so PrivShape's classification variant reports (shape, label) cells
// through OUE inside the refinement round (P_e). This example runs the
// full protocol through the multi-threaded collector — every training
// user is a wire-level ClientSession whose only emission is one encoded,
// perturbed report — and checks the served result byte-for-byte against
// the in-process core::PrivShapeLabeledShapes reference. The extracted
// labeled shapes then classify a held-out test set by nearest
// string-edit distance.
//
// Run: ./build/examples/device_classification [--users=3000] [--epsilon=4]

#include <iostream>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "core/classification.h"
#include "core/pipeline.h"
#include "core/privshape.h"
#include "eval/ari.h"
#include "eval/shape_matching.h"
#include "series/generators.h"
#include "series/time_series.h"

int main(int argc, char** argv) {
  using namespace privshape;
  CliArgs args(argc, argv);
  size_t users = static_cast<size_t>(args.GetInt("users", 3000));
  double epsilon = args.GetDouble("epsilon", 4.0);

  series::GeneratorOptions gen;
  gen.num_instances = users;
  gen.seed = 7;
  series::Dataset dataset = series::MakeTraceDataset(gen);
  series::Dataset train, test;
  series::TrainTestSplit(dataset, 0.8, 7, &train, &test);
  std::cout << train.size() << " training users, " << test.size()
            << " test instances, 3 transient classes\n";

  core::TransformOptions transform;
  transform.t = 4;
  transform.w = 10;
  auto train_seqs = core::TransformDataset(train, transform);
  auto test_seqs = core::TransformDataset(test, transform);
  if (!train_seqs.ok() || !test_seqs.ok()) {
    std::cerr << "transform failed\n";
    return 1;
  }

  core::MechanismConfig config;
  config.epsilon = epsilon;
  config.t = 4;
  config.k = 3;
  config.c = 3;
  config.metric = dist::Metric::kSed;
  config.num_classes = 3;  // enables the OUE candidate x class P_e round
  config.seed = 7;

  std::vector<int> train_labels;
  for (const auto& inst : train.instances) {
    train_labels.push_back(inst.label);
  }

  // 1) Serve the protocol over the wire: the labeled fleet wraps each
  //    training user's (word, label) into a lazily materialized
  //    ClientSession; the coordinator runs the rounds on a thread pool.
  //    Labels are only ever read inside each session's local OUE
  //    encoding — the collector sees noisy bit vectors.
  collector::ClientFleet fleet = collector::ClientFleet::FromWords(
      *train_seqs, train_seqs->size(), config.metric, config.seed,
      train_labels);
  ThreadPool pool(ThreadsFromArgs(args, 4));
  auto served = collector::RoundCoordinator(config, {}, &pool).Collect(fleet);
  if (!served.ok()) {
    std::cerr << served.status() << "\n";
    return 1;
  }

  std::cout << "\nextracted classification criteria (eps=" << epsilon
            << ", served over the wire):\n";
  std::vector<eval::LabeledShape> shapes;
  for (const auto& shape : served->shapes) {
    shapes.push_back({shape.shape, shape.label});
    std::cout << "  class " << shape.label << " <- \""
              << SequenceToString(shape.shape) << "\"\n";
  }

  // 2) The determinism contract, classification edition: the in-process
  //    reference on the same words and labels emits identical criteria.
  core::PrivShape mechanism(config);
  auto reference =
      core::PrivShapeLabeledShapes(mechanism, *train_seqs, train_labels);
  if (!reference.ok()) {
    std::cerr << reference.status() << "\n";
    return 1;
  }
  bool match = reference->size() == shapes.size();
  for (size_t i = 0; match && i < shapes.size(); ++i) {
    match = (*reference)[i].shape == shapes[i].shape &&
            (*reference)[i].label == shapes[i].label;
  }
  std::cout << "collector == core::PrivShapeLabeledShapes: "
            << (match ? "yes (byte-identical)" : "NO — bug!") << "\n";
  if (!match) return 1;

  auto classifier =
      eval::NearestShapeClassifier::Create(shapes, dist::Metric::kSed);
  std::vector<int> truth;
  for (const auto& inst : test.instances) truth.push_back(inst.label);
  auto predictions = classifier->ClassifyBatch(*test_seqs);
  auto accuracy = eval::Accuracy(truth, predictions);
  std::cout << "\nheld-out classification accuracy: " << *accuracy << "\n";
  std::cout << "every training label was only read inside its owner's "
               "local OUE encoding; the collector saw noisy bit vectors.\n";
  return 0;
}
