#include "core/length_estimation.h"

#include "core/rounds.h"
#include "ldp/estimator_utils.h"
#include "ldp/grr.h"

namespace privshape::core {

PS_REPORT_PATH
Result<int> EstimateFrequentLength(const std::vector<Sequence>& sequences,
                                   const std::vector<size_t>& population,
                                   int ell_low, int ell_high, double epsilon,
                                   Rng* rng) {
  if (population.empty()) {
    return Status::InvalidArgument(
        "length estimation requires a non-empty population");
  }
  if (ell_low < 1 || ell_high < ell_low) {
    return Status::InvalidArgument("need 1 <= ell_low <= ell_high");
  }
  size_t domain = static_cast<size_t>(ell_high - ell_low + 1);
  if (domain == 1) return ell_low;

  auto grr = ldp::Grr::Create(domain, epsilon);
  if (!grr.ok()) return grr.status();

  std::vector<size_t> counts(domain, 0);
  for (size_t user : population) {
    if (user >= sequences.size()) {
      return Status::OutOfRange("population index outside dataset");
    }
    // Shared user-side logic (same as ClientSession and PrivShape::Run),
    // here drawing from the caller's shared engine (baseline semantics).
    counts[AnswerLengthValue(sequences[user], ell_low, ell_high, *grr,
                             rng)]++;
  }

  std::vector<double> estimates =
      ldp::DebiasGrrCounts(counts, population.size(), epsilon);
  size_t best = 0;
  for (size_t v = 1; v < estimates.size(); ++v) {
    if (estimates[v] > estimates[best]) best = v;
  }
  return ell_low + static_cast<int>(best);
}

}  // namespace privshape::core
