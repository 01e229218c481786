#include "eval/shapelet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

namespace privshape::eval {

double SubsequenceDistance(const Sequence& sequence,
                           const Sequence& candidate,
                           const dist::SequenceDistance& distance,
                           dist::DtwScratch* scratch) {
  if (sequence.size() <= candidate.size()) {
    return distance.Distance(sequence, candidate, scratch);
  }
  double best = std::numeric_limits<double>::infinity();
  size_t window = candidate.size();
  dist::SymbolView whole(sequence);
  for (size_t start = 0; start + window <= sequence.size(); ++start) {
    best = std::min(best, distance.Distance(whole.Sub(start, window),
                                            candidate, scratch));
  }
  return best;
}

double SubsequenceDistance(const Sequence& sequence,
                           const Sequence& candidate, dist::Metric metric) {
  dist::DtwScratch scratch;
  return SubsequenceDistance(sequence, candidate, *dist::MakeDistance(metric),
                             &scratch);
}

double LabelEntropy(const std::vector<int>& labels) {
  if (labels.empty()) return 0.0;
  std::map<int, size_t> counts;
  for (int l : labels) counts[l]++;
  double entropy = 0.0;
  double n = static_cast<double>(labels.size());
  for (const auto& [_, c] : counts) {
    double p = static_cast<double>(c) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

double InformationGain(const std::vector<int>& labels,
                       const std::vector<bool>& mask) {
  std::vector<int> left, right;
  for (size_t i = 0; i < labels.size(); ++i) {
    (mask[i] ? left : right).push_back(labels[i]);
  }
  double n = static_cast<double>(labels.size());
  double split_entropy =
      (static_cast<double>(left.size()) / n) * LabelEntropy(left) +
      (static_cast<double>(right.size()) / n) * LabelEntropy(right);
  return LabelEntropy(labels) - split_entropy;
}

namespace {

int MajorityOf(const std::vector<int>& labels, const std::vector<bool>& mask) {
  std::map<int, size_t> counts;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (mask[i]) counts[labels[i]]++;
  }
  int best = -1;
  size_t best_count = 0;
  for (const auto& [label, count] : counts) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

/// Best threshold for one candidate: scan midpoints between consecutive
/// distinct distances, pick the split with maximal information gain.
Shapelet EvaluateCandidate(const Sequence& pattern,
                           const std::vector<double>& distances,
                           const std::vector<int>& labels) {
  Shapelet best;
  best.pattern = pattern;
  std::vector<double> sorted = distances;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<bool> mask(labels.size());
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    double threshold = 0.5 * (sorted[i] + sorted[i + 1]);
    for (size_t j = 0; j < labels.size(); ++j) {
      mask[j] = distances[j] <= threshold;
    }
    double gain = InformationGain(labels, mask);
    if (gain > best.info_gain) {
      best.info_gain = gain;
      best.threshold = threshold;
      best.majority_label = MajorityOf(labels, mask);
    }
  }
  return best;
}

}  // namespace

Result<std::vector<Shapelet>> DiscoverShapelets(
    const std::vector<Sequence>& sequences, const std::vector<int>& labels,
    const std::vector<Sequence>& seed_shapes,
    const ShapeletOptions& options) {
  if (sequences.size() != labels.size()) {
    return Status::InvalidArgument("one label per sequence required");
  }
  if (sequences.empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  if (seed_shapes.empty()) {
    return Status::InvalidArgument("need at least one seed shape");
  }
  if (options.min_length < 1 || options.max_length < options.min_length) {
    return Status::InvalidArgument("invalid candidate length range");
  }

  // Enumerate distinct sub-words of the seeds in the length range.
  std::set<Sequence> candidates;
  for (const auto& seed : seed_shapes) {
    for (size_t len = options.min_length;
         len <= std::min(options.max_length, seed.size()); ++len) {
      for (size_t start = 0; start + len <= seed.size(); ++start) {
        candidates.insert(Sequence(
            seed.begin() + static_cast<long>(start),
            seed.begin() + static_cast<long>(start + len)));
      }
    }
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("seeds shorter than min_length");
  }

  std::vector<Shapelet> scored;
  std::vector<double> distances(sequences.size());
  auto distance = dist::MakeDistance(options.metric);
  dist::DtwScratch scratch;
  for (const auto& pattern : candidates) {
    for (size_t i = 0; i < sequences.size(); ++i) {
      distances[i] =
          SubsequenceDistance(sequences[i], pattern, *distance, &scratch);
    }
    scored.push_back(EvaluateCandidate(pattern, distances, labels));
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Shapelet& a, const Shapelet& b) {
                     return a.info_gain > b.info_gain;
                   });
  // Label-diverse selection: a decision list needs shapelets that fire for
  // different classes, so take the best shapelet of each distinct majority
  // label first, then fill the remaining slots by gain.
  std::vector<Shapelet> selected;
  std::set<int> seen_labels;
  for (const auto& s : scored) {
    if (selected.size() >= options.top_k) break;
    if (seen_labels.insert(s.majority_label).second) selected.push_back(s);
  }
  for (const auto& s : scored) {
    if (selected.size() >= options.top_k) break;
    bool already = false;
    for (const auto& chosen : selected) {
      if (chosen.pattern == s.pattern &&
          chosen.threshold == s.threshold) {
        already = true;
        break;
      }
    }
    if (!already) selected.push_back(s);
  }
  std::stable_sort(selected.begin(), selected.end(),
                   [](const Shapelet& a, const Shapelet& b) {
                     return a.info_gain > b.info_gain;
                   });
  return selected;
}

int ClassifyWithShapelets(const Sequence& sequence,
                          const std::vector<Shapelet>& shapelets,
                          dist::Metric metric, int fallback_label) {
  auto distance = dist::MakeDistance(metric);
  dist::DtwScratch scratch;
  for (const auto& shapelet : shapelets) {
    double d =
        SubsequenceDistance(sequence, shapelet.pattern, *distance, &scratch);
    if (d <= shapelet.threshold) return shapelet.majority_label;
  }
  return fallback_label;
}

}  // namespace privshape::eval
