/// \file
/// Module `distance` — distances between SAX words (DTW, SED, Euclidean,
/// Hausdorff; §V-H ablation). Symbols are treated as ordinal, charging
/// |a - b| per aligned pair. Invariant: all metrics are symmetric and
/// non-negative; only Euclidean requires equal lengths.
///
/// Matching a word against a candidate list goes through
/// `CandidateTable` (candidate_table.h). The scalar kernels here are its
/// reference and its fallback: `SequenceDistance`'s view overload takes
/// a non-owning `SymbolView` (a prefix needs no copy) and a caller-owned
/// `DtwScratch`, so no allocation happens per evaluation, and it is
/// bit-identical to the `Sequence` overload — same loops, same operation
/// order.

#ifndef PRIVSHAPE_DISTANCE_DISTANCE_H_
#define PRIVSHAPE_DISTANCE_DISTANCE_H_

#include <memory>
#include <vector>

#include "common/span.h"
#include "series/sequence.h"

namespace privshape::dist {

/// Distance metrics the paper evaluates (§V-H). DTW is the clustering
/// default (Symbols), SED the classification default (Trace).
enum class Metric { kDtw, kSed, kEuclidean, kHausdorff };

const char* MetricName(Metric metric);

/// Non-owning view of a SAX word (or a prefix of one). A `Sequence`
/// converts implicitly; prefix comparisons view the first k symbols
/// without copying them into a temporary word.
using SymbolView = Span<const Symbol>;

/// Caller-owned scratch for the two-row DP kernels (DTW and SED). The
/// rows grow monotonically and are reused across evaluations, so one
/// scratch per worker thread removes all per-distance heap traffic.
/// A default-constructed scratch is valid; the kernels size it.
struct DtwScratch {
  std::vector<double> prev;
  std::vector<double> curr;
};

/// Distance between two SAX words. Symbols are ordinal, so metrics charge
/// |a - b| per aligned symbol pair unless stated otherwise.
class SequenceDistance {
 public:
  virtual ~SequenceDistance() = default;
  virtual double Distance(const Sequence& a, const Sequence& b) const = 0;

  /// Scratch-reusing kernel over non-owning views. Bit-identical to
  /// Distance() on the same symbols; `scratch` may be nullptr (the kernel
  /// then allocates locally, like the two-argument overload).
  virtual double Distance(SymbolView a, SymbolView b,
                          DtwScratch* scratch) const = 0;

  virtual Metric metric() const = 0;
};

/// The kernel of `metric`. Hausdorff runs over the point sets
/// {(i, a_i)}, with index coordinates scaled into [0, 1] so long words are
/// not dominated by the time axis.
std::unique_ptr<SequenceDistance> MakeDistance(Metric metric);

/// Dynamic time warping with per-pair cost |a - b|. Satisfies the
/// relaxed decomposition dist(S,S') <= dist(PRE,PRE') + dist(SUF,SUF')
/// used by Lemma 1.
double DtwSymbolic(const Sequence& a, const Sequence& b);

/// Levenshtein string edit distance with unit insert/delete/substitute.
double EditDistance(const Sequence& a, const Sequence& b);

/// Euclidean distance; the shorter word is padded with its final symbol so
/// sequences of different compressed lengths remain comparable.
double EuclideanSymbolic(const Sequence& a, const Sequence& b);

}  // namespace privshape::dist

#endif  // PRIVSHAPE_DISTANCE_DISTANCE_H_
