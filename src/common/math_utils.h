#ifndef PRIVSHAPE_COMMON_MATH_UTILS_H_
#define PRIVSHAPE_COMMON_MATH_UTILS_H_

#include <vector>

namespace privshape {

/// Arithmetic mean; returns 0 for an empty input.
double Mean(const std::vector<double>& v);

/// Population variance (divides by n); returns 0 for fewer than 2 points.
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double Stddev(const std::vector<double>& v);

/// In-place z-score normalization: (x - mean) / stddev. A constant series
/// (stddev below `eps`) is mapped to all zeros, matching the convention of
/// the UCR archive preprocessing the paper relies on.
void ZNormalize(std::vector<double>* v, double eps = 1e-12);

/// Returns the z-normalized copy of `v`.
std::vector<double> ZNormalized(const std::vector<double>& v,
                                double eps = 1e-12);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

/// Inverse CDF of the standard normal distribution (Acklam's rational
/// approximation; |relative error| < 1.15e-9 on (0,1)). Used to derive SAX
/// breakpoints for any alphabet size instead of a hardcoded lookup table.
double InverseNormalCdf(double p);

/// CDF of the standard normal distribution.
double NormalCdf(double x);

}  // namespace privshape

#endif  // PRIVSHAPE_COMMON_MATH_UTILS_H_
