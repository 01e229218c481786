#include "ldp/grr.h"

#include <cmath>

#include "ldp/accountant.h"
#include "ldp/estimator_utils.h"

namespace privshape::ldp {

Result<Grr> Grr::Create(size_t domain_size, double epsilon) {
  if (domain_size < 2) {
    return Status::InvalidArgument("GRR domain must have >= 2 values");
  }
  PRIVSHAPE_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  double p = 0.0, q = 0.0;
  GrrParameters(domain_size, epsilon, &p, &q);
  // Past epsilon ~ 709.78 e^epsilon overflows and p = inf / inf is NaN,
  // which no keep threshold can represent.
  if (std::isnan(p)) {
    return Status::InvalidArgument("epsilon too large: e^epsilon overflows");
  }
  return Grr(domain_size, p, q);
}

PS_RNG_WORDS(2)
size_t Grr::PerturbValue(size_t value, Rng* rng) const {
  // Canonical consumption order: exactly two raw engine words per draw,
  // regardless of the outcome. Word 0 decides keep-vs-flip by threshold
  // compare; word 1 picks uniformly among the other d-1 values by
  // multiply-shift. Fixed word counts are what let callers batch many
  // draws from one FillU64 block; every GRR consumer (in-process rounds
  // and wire sessions alike) goes through this one function, so the
  // order is identical on every path.
  uint64_t words[2];
  rng->FillU64(words, 2);
  if (words[0] < keep_threshold_) return value;
  size_t r = static_cast<size_t>(
      BoundedFromU64(words[1], static_cast<uint64_t>(d_ - 1)));
  return r >= value ? r + 1 : r;
}

double Grr::TransitionProbability(size_t x, size_t y) const {
  return x == y ? p_ : q_;
}

}  // namespace privshape::ldp
