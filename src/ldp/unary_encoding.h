#ifndef PRIVSHAPE_LDP_UNARY_ENCODING_H_
#define PRIVSHAPE_LDP_UNARY_ENCODING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/status.h"

namespace privshape::ldp {

/// Optimized unary encoding, OUE (Wang et al., USENIX Security'17). A
/// value is one-hot encoded over d bits; the 1-bit is kept with
/// probability p = 1/2 and each 0-bit flips to 1 with probability
/// q = 1 / (e^eps + 1), so p(1-q) / (q(1-p)) = e^eps gives eps-LDP with
/// the least estimator variance among unary encodings. It is what the
/// paper's classification refinement uses (§V-E). Callers tally the set
/// bits per cell and debias them with DebiasOueCounts.
class UnaryEncoding {
 public:
  /// Fails unless d >= 1 and eps > 0.
  static Result<UnaryEncoding> Create(size_t domain_size, double epsilon);

  /// Perturbs the one-hot encoding of `value`; exposed for tests.
  /// Allocates fresh buffers — the hot path uses EncodeInto below.
  PS_RNG_WORDS(d_)
  std::vector<uint8_t> PerturbValue(size_t value, Rng* rng) const;

  /// Zero-allocation batched perturbation — THE canonical unary-encoding
  /// consumption order: exactly d raw engine words, one per cell in cell
  /// order, with bit i = (word_i < threshold(i == value ? p : q)). The
  /// whole block is drawn with one FillU64 and compared with the SIMD
  /// threshold kernel; `words` and `bits` are caller-reused scratch
  /// (resized to d). PerturbValue and every wire session delegate here,
  /// so all paths spend identical randomness.
  PS_RNG_WORDS(d_)
  void EncodeInto(size_t value, Rng* rng, std::vector<uint64_t>* words,
                  std::vector<uint8_t>* bits) const;

  double p() const { return p_; }
  double q() const { return q_; }

 private:
  UnaryEncoding(size_t d, double p, double q)
      : d_(d),
        p_(p),
        q_(q),
        p_threshold_(ThresholdForProbability(p)),
        q_threshold_(ThresholdForProbability(q)) {}

  size_t d_;
  double p_;
  double q_;
  uint64_t p_threshold_;  ///< raw-u64 acceptance bound for the 1-bit
  uint64_t q_threshold_;  ///< raw-u64 acceptance bound for 0-bits
};

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_UNARY_ENCODING_H_
