// Fixture: raw epsilon literals at mechanism construction sites —
// budget the accountant never sees.
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"

namespace privshape::core {

void BadLiteralEpsilons(size_t domain) {
  auto grr = ldp::Grr::Create(domain, 1.0);
  auto em = ldp::ExponentialMechanism::Create(0.5);
  auto oue = ldp::UnaryEncoding::Create(domain, (2.0));
  (void)grr;
  (void)em;
  (void)oue;
}

}  // namespace privshape::core
