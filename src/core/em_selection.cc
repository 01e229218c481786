#include "core/em_selection.h"

#include <algorithm>

#include "core/rounds.h"
#include "ldp/exponential.h"

namespace privshape::core {

std::vector<double> MatchDistances(const Sequence& seq,
                                   const std::vector<Sequence>& candidates,
                                   bool prefix_compare,
                                   const dist::SequenceDistance& distance) {
  std::vector<double> out(candidates.size());
  dist::SymbolView word(seq);
  for (size_t cand = 0; cand < candidates.size(); ++cand) {
    const Sequence& shape = candidates[cand];
    // Lemma 1's prefix reading: view the word's |shape|-prefix, no copy.
    dist::SymbolView lhs = prefix_compare && seq.size() > shape.size()
                               ? word.Sub(0, shape.size())
                               : word;
    out[cand] = distance.Distance(lhs, dist::SymbolView(shape), nullptr);
  }
  return out;
}

size_t ClosestCandidate(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        const dist::SequenceDistance& distance) {
  std::vector<double> distances =
      MatchDistances(seq, candidates, /*prefix_compare=*/false, distance);
  return static_cast<size_t>(
      std::min_element(distances.begin(), distances.end()) -
      distances.begin());
}

PS_REPORT_PATH
Result<std::vector<double>> EmSelectionCounts(
    const std::vector<Sequence>& candidates,
    const std::vector<Sequence>& sequences,
    const std::vector<size_t>& population, dist::Metric metric,
    double epsilon, Rng* rng) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidates to select among");
  }
  auto em = ldp::ExponentialMechanism::Create(epsilon);
  if (!em.ok()) return em.status();
  auto distance = dist::MakeDistance(metric);
  dist::CandidateTable table = dist::CandidateTable::Build(candidates);

  for (size_t user : population) {
    if (user >= sequences.size()) {
      return Status::OutOfRange("population index outside dataset");
    }
  }
  std::vector<double> counts(candidates.size(), 0.0);
  SelectionScratch scratch;
  PRIVSHAPE_RETURN_IF_ERROR(table.MatchEach(
      population.size(),
      [&](size_t k) { return dist::SymbolView(sequences[population[k]]); },
      *distance, /*prefix_compare=*/true, &scratch.table, &scratch.distances,
      [&](size_t, Span<const double> row) {
        auto pick = AnswerSelectionValue(row, *em, &scratch, rng);
        if (!pick.ok()) return pick.status();
        counts[*pick] += 1.0;
        return Status::Ok();
      }));
  return counts;
}

}  // namespace privshape::core
