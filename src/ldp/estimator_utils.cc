#include "ldp/estimator_utils.h"

#include <cmath>

namespace privshape::ldp {

namespace {

/// (counts[v] - n*q) / (p - q): the unbiased count estimate of an oracle
/// that reports a user's own cell with probability p and any other cell
/// with probability q.
std::vector<double> Debias(const std::vector<size_t>& counts, size_t reports,
                           double p, double q) {
  std::vector<double> out(counts.size());
  double n = static_cast<double>(reports);
  for (size_t v = 0; v < counts.size(); ++v) {
    out[v] = (static_cast<double>(counts[v]) - n * q) / (p - q);
  }
  return out;
}

}  // namespace

void GrrParameters(size_t domain, double epsilon, double* p, double* q) {
  double e = std::exp(epsilon);
  *p = e / (e + static_cast<double>(domain) - 1.0);
  *q = 1.0 / (e + static_cast<double>(domain) - 1.0);
}

std::vector<double> DebiasGrrCounts(const std::vector<size_t>& counts,
                                    size_t reports, double epsilon) {
  double p = 0.0, q = 0.0;
  GrrParameters(counts.size(), epsilon, &p, &q);
  return Debias(counts, reports, p, q);
}

void OueParameters(double epsilon, double* p, double* q) {
  *p = 0.5;
  *q = 1.0 / (std::exp(epsilon) + 1.0);
}

std::vector<double> DebiasOueCounts(const std::vector<size_t>& counts,
                                    size_t reports, double epsilon) {
  double p = 0.0, q = 0.0;
  OueParameters(epsilon, &p, &q);
  return Debias(counts, reports, p, q);
}

}  // namespace privshape::ldp
