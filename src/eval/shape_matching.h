/// \file
/// Module `eval` — non-private downstream evaluation (§V): nearest-shape
/// assignment (Def. 4), clustering baselines (k-means/k-shape/
/// agglomerative), ARI, random-forest and 1-NN classification, and shapelet
/// discovery. Invariant: this layer consumes already-extracted shapes and
/// ground-truth labels; it performs no perturbation and spends no budget.

#ifndef PRIVSHAPE_EVAL_SHAPE_MATCHING_H_
#define PRIVSHAPE_EVAL_SHAPE_MATCHING_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "distance/candidate_table.h"
#include "distance/distance.h"
#include "series/sequence.h"

namespace privshape::eval {

/// A labeled extracted shape used for downstream evaluation.
struct LabeledShape {
  Sequence shape;
  int label = -1;
};

/// Assigns every sequence to its nearest shape (by the metric; ties to the
/// first shape), matching the sequences a lane block at a time through
/// `CandidateTable::MatchEach`; returns the shape index
/// per sequence. This realizes Def. 4's matching step and is how the paper
/// turns PrivShape's top-k shapes into cluster assignments for ARI (§V-C).
Result<std::vector<int>> AssignToNearestShape(
    const std::vector<Sequence>& sequences,
    const std::vector<Sequence>& shapes, dist::Metric metric);

/// 1-NN classifier over labeled shapes: a sequence receives the label of
/// its nearest shape, the first one on ties (§V-E, "most frequent shapes
/// within each class as the classification criteria"). Create builds the
/// shapes' `CandidateTable` once; Classify matches one sequence through
/// it, ClassifyBatch a lane block at a time.
class NearestShapeClassifier {
 public:
  static Result<NearestShapeClassifier> Create(
      std::vector<LabeledShape> shapes, dist::Metric metric);

  int Classify(const Sequence& sequence) const;
  std::vector<int> ClassifyBatch(
      const std::vector<Sequence>& sequences) const;

 private:
  NearestShapeClassifier(dist::CandidateTable table, std::vector<int> labels,
                         std::unique_ptr<dist::SequenceDistance> distance)
      : table_(std::move(table)),
        labels_(std::move(labels)),
        distance_(std::move(distance)) {}

  dist::CandidateTable table_;  ///< the shapes, in input order
  std::vector<int> labels_;     ///< labels_[i] is shape i's label
  std::unique_ptr<dist::SequenceDistance> distance_;
};

}  // namespace privshape::eval

#endif  // PRIVSHAPE_EVAL_SHAPE_MATCHING_H_
