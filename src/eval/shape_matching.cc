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
  std::vector<double> rows;
  std::vector<int> out;
  out.reserve(sequences.size());
  PRIVSHAPE_RETURN_IF_ERROR(table.MatchEach(
      sequences.size(),
      [&](size_t k) { return dist::SymbolView(sequences[k]); }, *distance,
      /*prefix_compare=*/false, &scratch, &rows,
      [&](size_t, Span<const double> row) {
        out.push_back(static_cast<int>(dist::FirstMinimum(row)));
        return Status::Ok();
      }));
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
  dist::TableScratch scratch;
  std::vector<double> rows;
  std::vector<int> out;
  out.reserve(sequences.size());
  // No callback fails, so neither does the walk.
  (void)table_.MatchEach(
      sequences.size(),
      [&](size_t k) { return dist::SymbolView(sequences[k]); }, *distance_,
      /*prefix_compare=*/false, &scratch, &rows,
      [&](size_t, Span<const double> row) {
        out.push_back(labels_[dist::FirstMinimum(row)]);
        return Status::Ok();
      });
  return out;
}

}  // namespace privshape::eval
