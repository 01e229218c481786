#ifndef PRIVSHAPE_LDP_ESTIMATOR_UTILS_H_
#define PRIVSHAPE_LDP_ESTIMATOR_UTILS_H_

#include <cstddef>
#include <vector>

namespace privshape::ldp {

/// GRR p/q for a domain of size d at budget eps — the one formula, which
/// Grr::Create and DebiasGrrCounts both read.
void GrrParameters(size_t domain, double epsilon, double* p, double* q);

/// Debiases raw GRR report counts: out[v] = (counts[v] - n*q) / (p - q)
/// with n = `reports` and d = counts.size(). This is THE GRR debias — the
/// in-process runner, PEM and the collector's server tally (through
/// proto::DebiasTally) all route through it, so a given integer count
/// vector yields byte-identical estimates regardless of which path
/// produced it.
std::vector<double> DebiasGrrCounts(const std::vector<size_t>& counts,
                                    size_t reports, double epsilon);

/// OUE p/q at budget eps — the one formula, which UnaryEncoding::Create
/// and DebiasOueCounts both read.
void OueParameters(double epsilon, double* p, double* q);

/// Debiases per-cell OUE set-bit tallies over `reports` bit vectors:
/// out[v] = (counts[v] - n*q) / (p - q). THE OUE debias — the in-process
/// P_e runner and the collector's server tally (through
/// proto::DebiasTally) both call it.
std::vector<double> DebiasOueCounts(const std::vector<size_t>& counts,
                                    size_t reports, double epsilon);

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_ESTIMATOR_UTILS_H_
