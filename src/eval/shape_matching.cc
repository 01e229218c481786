#include "eval/shape_matching.h"

namespace privshape::eval {

Result<std::vector<int>> AssignToNearestShape(
    const std::vector<Sequence>& sequences,
    const std::vector<Sequence>& shapes, dist::Metric metric) {
  if (shapes.empty()) {
    return Status::InvalidArgument("need at least one shape to match");
  }
  auto distance = dist::MakeDistance(metric);
  dist::CandidateTable table = dist::CandidateTable::Build(shapes);
  dist::TableScratch scratch;
  std::vector<int> out;
  out.reserve(sequences.size());
  for (const auto& seq : sequences) {
    out.push_back(static_cast<int>(table.Closest(seq, *distance, &scratch)));
  }
  return out;
}

Result<NearestShapeClassifier> NearestShapeClassifier::Create(
    std::vector<LabeledShape> shapes, dist::Metric metric) {
  if (shapes.empty()) {
    return Status::InvalidArgument("need at least one labeled shape");
  }
  auto distance = dist::MakeDistance(metric);
  if (distance == nullptr) {
    return Status::InvalidArgument("unknown metric");
  }
  std::vector<Sequence> candidates;
  std::vector<int> labels;
  for (auto& shape : shapes) {
    candidates.push_back(std::move(shape.shape));
    labels.push_back(shape.label);
  }
  return NearestShapeClassifier(
      dist::CandidateTable::Build(std::move(candidates)), std::move(labels),
      std::move(distance));
}

int NearestShapeClassifier::Classify(const Sequence& sequence) const {
  return labels_[table_.Closest(sequence, *distance_, nullptr)];
}

std::vector<int> NearestShapeClassifier::ClassifyBatch(
    const std::vector<Sequence>& sequences) const {
  std::vector<int> out;
  out.reserve(sequences.size());
  for (const auto& seq : sequences) out.push_back(Classify(seq));
  return out;
}

}  // namespace privshape::eval
