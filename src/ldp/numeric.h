#ifndef PRIVSHAPE_LDP_NUMERIC_H_
#define PRIVSHAPE_LDP_NUMERIC_H_

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/status.h"

namespace privshape::ldp {

/// Piecewise Mechanism (Wang et al., ICDE'19): unbiased eps-LDP
/// perturbation of a single numeric value in [-1, 1], the primitive
/// PatternLDP's value perturbation is built on. Output domain is
/// [-C, C] with C = (e^{eps/2} + 1) / (e^{eps/2} - 1); a high-probability
/// band of width C-1 is centered near the true value.
class PiecewiseMechanism {
 public:
  static Result<PiecewiseMechanism> Create(double epsilon);

  /// Perturbs v (clamped to [-1,1]); E[Perturb(v)] = v.
  PS_RNG_CANONICAL
  double Perturb(double value, Rng* rng) const;
  double epsilon() const { return epsilon_; }

  /// Output-range half-width C; exposed for tests.
  double output_bound() const { return c_; }

  /// Worst-case density ratio between any two inputs at any output;
  /// equals e^eps — used by the privacy property test.
  double DensityAt(double input, double output) const;

 private:
  explicit PiecewiseMechanism(double epsilon);

  double epsilon_;
  double e_half_;  // e^{eps/2}
  double c_;       // output bound
};

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_NUMERIC_H_
