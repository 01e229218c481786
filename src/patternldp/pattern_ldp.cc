#include "patternldp/pattern_ldp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/math_utils.h"
#include "ldp/accountant.h"
#include "ldp/numeric.h"
#include "patternldp/pid.h"

namespace privshape::pldp {

Result<PatternLdp> PatternLdp::Create(const PatternLdpConfig& config) {
  PRIVSHAPE_RETURN_IF_ERROR(ldp::CheckEpsilon(config.epsilon));
  if (config.sample_fraction <= 0.0 || config.sample_fraction > 1.0) {
    return Status::InvalidArgument("sample_fraction must be in (0, 1]");
  }
  if (config.clip <= 0.0) {
    return Status::InvalidArgument("clip bound must be positive");
  }
  return PatternLdp(config);
}

Result<std::vector<double>> PatternLdp::PerturbSeries(
    const std::vector<double>& values, Rng* rng) const {
  if (values.empty()) {
    return Status::InvalidArgument("cannot perturb an empty series");
  }
  size_t n = values.size();
  std::vector<double> scores =
      ImportanceScores(values, config_.kp, config_.ki, config_.kd);

  // Sample the most important points as anchors; endpoints are always
  // anchors so interpolation covers the whole record.
  size_t target = std::max(
      config_.min_samples,
      static_cast<size_t>(std::ceil(config_.sample_fraction *
                                    static_cast<double>(n))));
  target = std::min(target, n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  std::vector<char> sampled(n, 0);
  sampled[0] = sampled[n - 1] = 1;
  size_t count = (n > 1) ? 2 : 1;
  for (size_t idx : order) {
    if (count >= target) break;
    if (!sampled[idx]) {
      sampled[idx] = 1;
      ++count;
    }
  }

  // Allocate the single user-level budget across anchors proportionally to
  // their importance (minimum share keeps every anchor usable).
  std::vector<size_t> anchors;
  for (size_t i = 0; i < n; ++i) {
    if (sampled[i]) anchors.push_back(i);
  }
  double score_total = 0.0;
  for (size_t idx : anchors) score_total += scores[idx];
  // Importance-proportional shares with a floor of half the uniform share,
  // renormalized so the per-anchor budgets sum to exactly epsilon (the
  // floor alone would overspend the user-level budget).
  const double kMinShare = 0.5 / static_cast<double>(anchors.size());
  std::vector<double> shares(anchors.size());
  double share_total = 0.0;
  for (size_t a = 0; a < anchors.size(); ++a) {
    double raw = score_total > 1e-12
                     ? scores[anchors[a]] / score_total
                     : 1.0 / static_cast<double>(anchors.size());
    shares[a] = std::max(raw, kMinShare);
    share_total += shares[a];
  }
  for (double& s : shares) s /= share_total;

  std::vector<double> out(n, 0.0);
  std::vector<double> anchor_values(anchors.size(), 0.0);
  for (size_t a = 0; a < anchors.size(); ++a) {
    size_t idx = anchors[a];
    double eps_i = config_.epsilon * shares[a];
    auto pm = ldp::PiecewiseMechanism::Create(eps_i);
    if (!pm.ok()) return pm.status();
    double scaled = Clamp(values[idx], -config_.clip, config_.clip) /
                    config_.clip;
    anchor_values[a] = pm->Perturb(scaled, rng) * config_.clip;
  }

  // Linear interpolation between perturbed anchors.
  for (size_t a = 0; a + 1 < anchors.size(); ++a) {
    size_t lo = anchors[a], hi = anchors[a + 1];
    for (size_t i = lo; i <= hi; ++i) {
      double frac = hi == lo ? 0.0
                             : static_cast<double>(i - lo) /
                                   static_cast<double>(hi - lo);
      out[i] = anchor_values[a] * (1.0 - frac) + anchor_values[a + 1] * frac;
    }
  }
  if (anchors.size() == 1) {
    std::fill(out.begin(), out.end(), anchor_values[0]);
  }
  return out;
}

Result<series::Dataset> PatternLdp::PerturbDatasetParallel(
    const series::Dataset& dataset, ThreadPool* pool, uint64_t seed) const {
  series::Dataset out;
  out.instances.resize(dataset.size());
  std::vector<Status> statuses(dataset.size());
  pool->ParallelFor(dataset.size(), [&](size_t i) {
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    auto perturbed = PerturbSeries(dataset.instances[i].values, &rng);
    if (!perturbed.ok()) {
      statuses[i] = perturbed.status();
      return;
    }
    out.instances[i].values = std::move(*perturbed);
    out.instances[i].label = dataset.instances[i].label;
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return out;
}

Result<series::Dataset> PatternLdp::PerturbDataset(
    const series::Dataset& dataset, Rng* rng) const {
  series::Dataset out;
  out.instances.reserve(dataset.size());
  for (const auto& inst : dataset.instances) {
    auto perturbed = PerturbSeries(inst.values, rng);
    if (!perturbed.ok()) return perturbed.status();
    series::TimeSeries copy;
    copy.values = std::move(*perturbed);
    copy.label = inst.label;
    out.instances.push_back(std::move(copy));
  }
  return out;
}

}  // namespace privshape::pldp
