/// \file
/// Module `ldp` — general-purpose local-DP primitives (§II-B): GRR, OUE
/// unary encoding, the exponential mechanism, numeric mechanisms, and the
/// budget accountant. Invariants: a user's true value is only ever read
/// inside their own Perturb/Encode call, and mechanisms keep no tallies —
/// callers count reports as integers and debias them with the one
/// estimator per oracle in estimator_utils.h, which is unbiased for the
/// true counts.

#ifndef PRIVSHAPE_LDP_GRR_H_
#define PRIVSHAPE_LDP_GRR_H_

#include <cstddef>
#include <cstdint>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/status.h"

namespace privshape::ldp {

/// Generalized Randomized Response (Wang et al., USENIX Security'17).
///
/// Reports the true value with p = e^eps / (e^eps + d - 1) and any specific
/// other value with q = 1 / (e^eps + d - 1); p/q = e^eps gives eps-LDP.
/// Callers tally the reports and debias them with DebiasGrrCounts.
class Grr {
 public:
  /// Fails unless d >= 2 and eps > 0.
  static Result<Grr> Create(size_t domain_size, double epsilon);

  /// One local perturbation of `value` (in [0, d)). Consumes exactly two
  /// raw engine words (keep test, then the flip target) — the canonical
  /// GRR consumption order shared by every path that produces a GRR
  /// report.
  PS_RNG_WORDS(2)
  size_t PerturbValue(size_t value, Rng* rng) const;

  /// P[output = y | input = x]; used by the eps-LDP property tests.
  double TransitionProbability(size_t x, size_t y) const;

  double p() const { return p_; }
  double q() const { return q_; }

 private:
  Grr(size_t d, double p, double q)
      : d_(d), p_(p), q_(q), keep_threshold_(ThresholdForProbability(p)) {}

  size_t d_;
  double p_;
  double q_;
  uint64_t keep_threshold_;  ///< raw-u64 acceptance bound for p_
};

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_GRR_H_
