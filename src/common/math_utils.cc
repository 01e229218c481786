#include "common/math_utils.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace privshape {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double Stddev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

void ZNormalize(std::vector<double>* v, double eps) {
  double m = Mean(*v);
  double s = Stddev(*v);
  if (s < eps) {
    std::fill(v->begin(), v->end(), 0.0);
    return;
  }
  for (double& x : *v) x = (x - m) / s;
}

std::vector<double> ZNormalized(const std::vector<double>& v, double eps) {
  std::vector<double> out = v;
  ZNormalize(&out, eps);
  return out;
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

double InverseNormalCdf(double p) {
  // Peter Acklam's algorithm, coefficients from the canonical reference.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  const double p_high = 1.0 - p_low;

  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();

  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

}  // namespace privshape
