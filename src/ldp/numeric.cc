#include "ldp/numeric.h"

#include <cmath>

#include "common/math_utils.h"

namespace privshape::ldp {

PiecewiseMechanism::PiecewiseMechanism(double epsilon)
    : epsilon_(epsilon),
      e_half_(std::exp(epsilon / 2.0)),
      c_((e_half_ + 1.0) / (e_half_ - 1.0)) {}

Result<PiecewiseMechanism> PiecewiseMechanism::Create(double epsilon) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  return PiecewiseMechanism(epsilon);
}

PS_RNG_CANONICAL
double PiecewiseMechanism::Perturb(double value, Rng* rng) const {
  double v = Clamp(value, -1.0, 1.0);
  // High-probability band [l(v), r(v)] of width C - 1 around the input.
  double l = (c_ + 1.0) / 2.0 * v - (c_ - 1.0) / 2.0;
  double r = l + c_ - 1.0;
  double p_band = e_half_ / (e_half_ + 1.0);
  if (rng->Bernoulli(p_band)) {
    return rng->Uniform(l, r);
  }
  // Uniform over the complement [-C, l) U (r, C].
  double left_len = l - (-c_);
  double right_len = c_ - r;
  double u = rng->Uniform(0.0, left_len + right_len);
  return u < left_len ? -c_ + u : r + (u - left_len);
}

double PiecewiseMechanism::DensityAt(double input, double output) const {
  double v = Clamp(input, -1.0, 1.0);
  if (output < -c_ || output > c_) return 0.0;
  double l = (c_ + 1.0) / 2.0 * v - (c_ - 1.0) / 2.0;
  double r = l + c_ - 1.0;
  // Outside mass 1/(e^{eps/2}+1) spreads over 2C - (C-1) = C+1; inside mass
  // e^{eps/2}/(e^{eps/2}+1) over the band of width C-1. The ratio of the two
  // densities is exactly e^eps.
  double outside = (1.0 / (e_half_ + 1.0)) / (c_ + 1.0);
  double inside = (e_half_ / (e_half_ + 1.0)) / (c_ - 1.0);
  return (output >= l && output <= r) ? inside : outside;
}

}  // namespace privshape::ldp
