#ifndef PRIVSHAPE_EVAL_SHAPELET_H_
#define PRIVSHAPE_EVAL_SHAPELET_H_

#include <vector>

#include "common/status.h"
#include "distance/distance.h"
#include "series/sequence.h"

namespace privshape::eval {

/// Shapelet discovery over symbolic sequences — the extension the paper
/// names as future work (§VII). A shapelet is a short sub-word whose
/// best-match distance to a sequence splits the labeled dataset with high
/// information gain; PrivShape's extracted shapes (or their sub-words) are
/// natural private candidates.
struct Shapelet {
  Sequence pattern;
  double threshold = 0.0;   ///< split: dist <= threshold vs > threshold
  double info_gain = 0.0;
  int majority_label = -1;  ///< majority class on the <= threshold side
};

/// Sliding best-match distance: min over all windows of `sequence` (of the
/// candidate's length, clamped to the sequence) of the `distance` to
/// `candidate`. Returns the whole-sequence distance when the sequence is
/// shorter than the candidate. `scratch` may be nullptr; a caller that
/// scores many pairs passes one kernel and one scratch for all of them.
double SubsequenceDistance(const Sequence& sequence,
                           const Sequence& candidate,
                           const dist::SequenceDistance& distance,
                           dist::DtwScratch* scratch);

/// The same through a kernel and a scratch built for this one call.
double SubsequenceDistance(const Sequence& sequence,
                           const Sequence& candidate, dist::Metric metric);

/// Shannon entropy of a label multiset, in bits.
double LabelEntropy(const std::vector<int>& labels);

/// Information gain of splitting `labels` by `mask` (true = left branch).
double InformationGain(const std::vector<int>& labels,
                       const std::vector<bool>& mask);

struct ShapeletOptions {
  dist::Metric metric = dist::Metric::kSed;
  size_t top_k = 3;
  /// Candidate sub-word lengths to enumerate from the seeds.
  size_t min_length = 2;
  size_t max_length = 6;
};

/// Evaluates every sub-word of every seed shape as a shapelet candidate
/// over the labeled sequences and returns the top-k by information gain
/// (distinct patterns only). Seeds typically come from PrivShape's output,
/// so the discovery inherits its user-level LDP guarantee by
/// post-processing.
Result<std::vector<Shapelet>> DiscoverShapelets(
    const std::vector<Sequence>& sequences, const std::vector<int>& labels,
    const std::vector<Sequence>& seed_shapes, const ShapeletOptions& options);

/// Classifies a sequence with a decision list of shapelets: the first
/// shapelet whose threshold test fires assigns its majority label;
/// `fallback_label` applies when none fires.
int ClassifyWithShapelets(const Sequence& sequence,
                          const std::vector<Shapelet>& shapelets,
                          dist::Metric metric, int fallback_label);

}  // namespace privshape::eval

#endif  // PRIVSHAPE_EVAL_SHAPELET_H_
