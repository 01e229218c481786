#include "ldp/accountant.h"

#include <algorithm>
#include <cmath>

#include "common/csv.h"

namespace privshape::ldp {

Status CheckEpsilon(double epsilon) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be finite and positive");
  }
  return Status::Ok();
}

Status PrivacyAccountant::Charge(const std::string& population,
                                 double epsilon) {
  if (!std::isfinite(epsilon) || epsilon < 0.0) {
    return Status::InvalidArgument(
        "cannot charge a negative or non-finite budget");
  }
  charges_[population] += epsilon;
  return Status::Ok();
}

double PrivacyAccountant::PopulationEpsilon(
    const std::string& population) const {
  auto it = charges_.find(population);
  return it == charges_.end() ? 0.0 : it->second;
}

double PrivacyAccountant::UserLevelEpsilon() const {
  double mx = 0.0;
  for (const auto& [_, eps] : charges_) mx = std::max(mx, eps);
  return mx;
}

Status PrivacyAccountant::CheckWithinBudget(double budget,
                                            double tolerance) const {
  double spent = UserLevelEpsilon();
  if (spent > budget + tolerance) {
    return Status::FailedPrecondition(
        "user-level budget exceeded: spent " + FormatDouble(spent) +
        " > budget " + FormatDouble(budget));
  }
  return Status::Ok();
}

}  // namespace privshape::ldp
