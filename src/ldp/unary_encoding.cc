#include "ldp/unary_encoding.h"

#include "common/simd.h"
#include "ldp/accountant.h"
#include "ldp/estimator_utils.h"

namespace privshape::ldp {

Result<UnaryEncoding> UnaryEncoding::Create(size_t domain_size,
                                            double epsilon) {
  if (domain_size < 1) {
    return Status::InvalidArgument("unary encoding domain must be >= 1");
  }
  PRIVSHAPE_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  double p = 0.0, q = 0.0;
  OueParameters(epsilon, &p, &q);
  return UnaryEncoding(domain_size, p, q);
}

PS_RNG_WORDS(d_)
std::vector<uint8_t> UnaryEncoding::PerturbValue(size_t value,
                                                 Rng* rng) const {
  std::vector<uint64_t> words;
  std::vector<uint8_t> bits;
  EncodeInto(value, rng, &words, &bits);
  return bits;
}

PS_RNG_WORDS(d_)
void UnaryEncoding::EncodeInto(size_t value, Rng* rng,
                               std::vector<uint64_t>* words,
                               std::vector<uint8_t>* bits) const {
  words->resize(d_);
  bits->resize(d_);
  rng->FillU64(words->data(), d_);
  // Every cell is a q-threshold compare; the single 1-hot cell is then
  // re-decided against its own word with the p threshold, so the word ->
  // bit mapping per cell never depends on how many cells precede it.
  simd::LessThanU64(words->data(), d_, q_threshold_, bits->data());
  if (value < d_) {
    (*bits)[value] = (*words)[value] < p_threshold_ ? 1 : 0;
  }
}

}  // namespace privshape::ldp
