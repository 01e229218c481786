/// \file
/// Module `ldp` — general-purpose local-DP primitives (§II-B): GRR, OUE/SUE
/// unary encoding, the exponential mechanism, numeric mechanisms, and the
/// budget accountant. Invariant: a user's true value is only ever read
/// inside their own Submit/Perturb call, and every estimator returned is
/// unbiased for the true counts.

#ifndef PRIVSHAPE_LDP_FREQUENCY_ORACLE_H_
#define PRIVSHAPE_LDP_FREQUENCY_ORACLE_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace privshape::ldp {

/// Accumulating interface for LDP categorical frequency estimation.
///
/// Each simulated user calls SubmitUser(value) exactly once; the oracle
/// perturbs locally (the only place the true value is seen) and accumulates
/// the noisy report. EstimateCounts() returns unbiased estimates of the
/// per-value counts. Concrete oracles (GRR, OUE, SUE) expose their raw
/// perturbation primitives too, which the privacy property tests exercise
/// directly.
class FrequencyOracle {
 public:
  virtual ~FrequencyOracle() = default;

  /// Perturbs `value` (in [0, domain_size)) and accumulates the report.
  virtual Status SubmitUser(size_t value, Rng* rng) = 0;

  /// Unbiased estimated count per domain value, given reports so far.
  virtual std::vector<double> EstimateCounts() const = 0;

  /// Drops all accumulated reports.
  virtual void Reset() = 0;

  virtual size_t domain_size() const = 0;
  virtual double epsilon() const = 0;
  virtual size_t num_reports() const = 0;
};

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_FREQUENCY_ORACLE_H_
