#ifndef PRIVSHAPE_LDP_ACCOUNTANT_H_
#define PRIVSHAPE_LDP_ACCOUNTANT_H_

#include <map>
#include <string>

#include "common/status.h"

namespace privshape::ldp {

/// The one validity check of a privacy budget: ε must be finite and > 0.
/// NaN passes every `epsilon <= 0` test and ε = ∞ turns the mechanisms'
/// probabilities into NaN, so every mechanism and config, and through
/// them every context a wire client builds from a broadcast, checks ε
/// here.
Status CheckEpsilon(double epsilon);

/// Tracks the user-level privacy budget spent by a mechanism run.
///
/// PrivShape allocates *disjoint* user populations to its stages, so the
/// user-level guarantee follows from parallel composition: the budget of a
/// user equals the total charged to the single population that user belongs
/// to. Charges to the same population compose sequentially (they add up).
class PrivacyAccountant {
 public:
  /// Records that every user in `population` spent `epsilon`.
  Status Charge(const std::string& population, double epsilon);

  /// Sequentially composed budget of one population (0 if never charged).
  double PopulationEpsilon(const std::string& population) const;

  /// The user-level guarantee of the whole mechanism: the maximum over
  /// populations (parallel composition across disjoint user groups).
  double UserLevelEpsilon() const;

  /// Fails if the user-level guarantee exceeds `budget` (+ tolerance).
  Status CheckWithinBudget(double budget, double tolerance = 1e-9) const;

  const std::map<std::string, double>& charges() const { return charges_; }

 private:
  std::map<std::string, double> charges_;
};

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_ACCOUNTANT_H_
