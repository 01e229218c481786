// Fixture: the clean twin — every epsilon is a traced expression
// (config field, parameter, or arithmetic split of one).
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"

namespace privshape::core {

struct BudgetedConfig {
  double epsilon = 0.0;
};

void GoodTracedEpsilons(size_t domain, const BudgetedConfig& config,
                        double epsilon) {
  auto grr = ldp::Grr::Create(domain, config.epsilon);
  auto em = ldp::ExponentialMechanism::Create(epsilon);
  // Splitting a traced budget with literal factors stays traced.
  auto oue = ldp::UnaryEncoding::Create(domain, config.epsilon / 2.0);
  (void)grr;
  (void)em;
  (void)oue;
}

}  // namespace privshape::core
