#ifndef PRIVSHAPE_LDP_EXPONENTIAL_H_
#define PRIVSHAPE_LDP_EXPONENTIAL_H_

#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/span.h"
#include "common/status.h"

namespace privshape::ldp {

/// Exponential Mechanism (McSherry & Talwar, FOCS'07) specialized for
/// user-side candidate selection (the paper's Eq. (2)):
///
///   Pr[output = j] = exp(eps * S_j / (2 * delta)) / sum_z exp(...)
///
/// Scores are expected to lie in [0, 1] (delta = 1); selecting over the
/// local user's own data makes the selection eps-LDP because any two users'
/// score vectors shift each candidate's utility by at most delta.
class ExponentialMechanism {
 public:
  /// SelectFromDistances' per-value path takes integral distances below
  /// this: its weight table holds one slot per value.
  static constexpr size_t kDistanceSlots = 512;

  static Result<ExponentialMechanism> Create(double epsilon,
                                             double sensitivity = 1.0);

  /// Samples a candidate index under the EM distribution. The
  /// probability vector is built in `*probs_scratch` (resized, contents
  /// overwritten), so hot loops allocate nothing.
  PS_RNG_CANONICAL
  Result<size_t> Select(const std::vector<double>& scores, Rng* rng,
                        std::vector<double>* probs_scratch) const;

  /// P_c's draw: the candidate index `ScoresFromDistancesInto` + `Select`
  /// would return for `distances`, from the same engine words, bit for
  /// bit. When the distances are integers in [0, kDistanceSlots) (DTW and
  /// SED over symbols give integers) that span no more values than there
  /// are candidates, the score, the exp and the division by the total are
  /// computed once per value between the smallest and the largest, in
  /// `*distance_weights`, and gathered in candidate order for the two
  /// sums, so these add the same doubles in the same order. The index is
  /// found by binary search over the running sums, Rng::Discrete's
  /// partial sums, kept in `*running_sums`. Any other vector takes the
  /// two-step form, with the scores in `*distance_weights` and the
  /// probabilities in `*running_sums`. Both buffers are resized, capacity
  /// reused.
  PS_RNG_CANONICAL
  Result<size_t> SelectFromDistances(Span<const double> distances,
                                     Rng* rng,
                                     std::vector<double>* distance_weights,
                                     std::vector<double>* running_sums) const;

  /// The exact selection distribution, written into `*probs` (resized,
  /// capacity reused); exercised by the privacy tests (verifying Pr
  /// ratios across neighboring score vectors <= e^eps).
  Status SelectionProbabilitiesInto(const std::vector<double>& scores,
                                    std::vector<double>* probs) const;

  double epsilon() const { return epsilon_; }

 private:
  ExponentialMechanism(double epsilon, double sensitivity)
      : epsilon_(epsilon), sensitivity_(sensitivity) {}

  double epsilon_;
  double sensitivity_;
};

/// Converts candidate distances into EM scores in [0, 1]:
/// S_j = (d_max - d_j) / (d_max - d_min); all-equal distances score 1.
/// This realizes the paper's "S proportional to 1/dist, normalized" intent
/// while staying bounded for zero distances. Fills `*scores` (resized,
/// capacity reused). With Select it is the two-step reference of
/// ExponentialMechanism::SelectFromDistances, and that draw's fallback.
void ScoresFromDistancesInto(Span<const double> distances,
                             std::vector<double>* scores);

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_EXPONENTIAL_H_
