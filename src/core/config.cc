#include "core/config.h"

namespace privshape::core {

Status MechanismConfig::Validate() const {
  PRIVSHAPE_RETURN_IF_ERROR(ldp::CheckEpsilon(epsilon));
  if (t < 2 || t > 26) {
    return Status::InvalidArgument("alphabet size t must be in [2, 26]");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (c < 2) {
    return Status::InvalidArgument(
        "candidate multiplier c must be >= 2 (see §IV-B)");
  }
  if (ell_low < 1 || ell_high < ell_low) {
    return Status::InvalidArgument("need 1 <= ell_low <= ell_high");
  }
  if (frac_a <= 0.0 || frac_b < 0.0 || frac_c <= 0.0 || frac_d < 0.0) {
    return Status::InvalidArgument("population fractions must be positive");
  }
  if (frac_a + frac_b + frac_c + frac_d > 1.0 + 1e-9) {
    return Status::InvalidArgument("population fractions must sum to <= 1");
  }
  if (num_classes < 0) {
    return Status::InvalidArgument("num_classes must be >= 0");
  }
  if (baseline_threshold < 0.0) {
    return Status::InvalidArgument("baseline threshold must be >= 0");
  }
  return Status::Ok();
}

}  // namespace privshape::core
