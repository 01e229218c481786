#include "ldp/exponential.h"

#include <algorithm>
#include <cmath>

#include "ldp/accountant.h"

namespace privshape::ldp {

Result<ExponentialMechanism> ExponentialMechanism::Create(double epsilon,
                                                          double sensitivity) {
  PRIVSHAPE_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  if (sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  return ExponentialMechanism(epsilon, sensitivity);
}

Status ExponentialMechanism::SelectionProbabilitiesInto(
    const std::vector<double>& scores, std::vector<double>* probs) const {
  if (scores.empty()) {
    return Status::InvalidArgument("empty candidate set");
  }
  // Stabilize by subtracting the max exponent before exponentiating.
  double coeff = epsilon_ / (2.0 * sensitivity_);
  double mx = *std::max_element(scores.begin(), scores.end());
  probs->resize(scores.size());
  double total = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    (*probs)[i] = std::exp(coeff * (scores[i] - mx));
    total += (*probs)[i];
  }
  for (double& p : *probs) p /= total;
  return Status::Ok();
}

PS_RNG_CANONICAL
Result<size_t> ExponentialMechanism::Select(
    const std::vector<double>& scores, Rng* rng,
    std::vector<double>* probs_scratch) const {
  PRIVSHAPE_RETURN_IF_ERROR(SelectionProbabilitiesInto(scores, probs_scratch));
  return rng->Discrete(*probs_scratch);
}

PS_RNG_CANONICAL
Result<size_t> ExponentialMechanism::SelectFromDistances(
    Span<const double> distances, Rng* rng,
    std::vector<double>* distance_weights,
    std::vector<double>* running_sums) const {
  auto two_step = [&]() -> Result<size_t> {
    ScoresFromDistancesInto(distances, distance_weights);
    return Select(*distance_weights, rng, running_sums);
  };
  const size_t n = distances.size();
  if (n == 0) return two_step();  // the same empty-set error
  int lo = static_cast<int>(kDistanceSlots), hi = 0;
  for (double d : distances) {
    if (!(d >= 0.0 && d < static_cast<double>(kDistanceSlots)) ||
        static_cast<double>(static_cast<int>(d)) != d) {
      return two_step();
    }
    lo = std::min(lo, static_cast<int>(d));
    hi = std::max(hi, static_cast<int>(d));
  }
  // One weight per value in [lo, hi]: no more than the two-step's one per
  // candidate, and on DTW/SED words the values between are nearly all
  // present, so this beats tracking which ones are.
  if (static_cast<size_t>(hi - lo) >= n) return two_step();

  // ScoresFromDistancesInto and SelectionProbabilitiesInto per value, in
  // their expressions; the best score is score(lo) = 1.
  const double mn = lo, mx = hi;
  auto score = [mn, mx](double d) {
    return mx - mn < 1e-12 ? 1.0 : (mx - d) / (mx - mn);
  };
  const double coeff = epsilon_ / (2.0 * sensitivity_);
  const double best = score(mn);
  distance_weights->resize(kDistanceSlots);
  double* w = distance_weights->data();
  for (int v = lo; v <= hi; ++v) {
    w[v] = std::exp(coeff * (score(static_cast<double>(v)) - best));
  }
  double total = 0.0;
  for (double d : distances) total += w[static_cast<int>(d)];
  // Each slot becomes its probability, clamped as Rng::Discrete clamps.
  for (int v = lo; v <= hi; ++v) {
    double p = w[v] / total;
    w[v] = p > 0 ? p : 0.0;
  }

  // Rng::Discrete over the gathered probabilities: its total is the last
  // running sum, and its scan stops at the first sum above r.
  running_sums->resize(n);
  double* sums = running_sums->data();
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += w[static_cast<int>(distances[i])];
    sums[i] = acc;
  }
  if (acc <= 0.0) return rng->Index(n);
  double r = rng->Uniform(0.0, acc);
  auto pick = static_cast<size_t>(std::upper_bound(sums, sums + n, r) - sums);
  return std::min(pick, n - 1);
}

void ScoresFromDistancesInto(Span<const double> distances,
                             std::vector<double>* scores) {
  scores->assign(distances.size(), 1.0);
  if (distances.empty()) return;
  double mn = *std::min_element(distances.begin(), distances.end());
  double mx = *std::max_element(distances.begin(), distances.end());
  if (mx - mn < 1e-12) return;  // all equally good
  for (size_t i = 0; i < distances.size(); ++i) {
    (*scores)[i] = (mx - distances[i]) / (mx - mn);
  }
}

}  // namespace privshape::ldp
