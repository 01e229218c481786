#include "ldp/unary_encoding.h"

#include <cmath>

#include "common/simd.h"
#include "ldp/accountant.h"

namespace privshape::ldp {

Result<UnaryEncoding> UnaryEncoding::Create(size_t domain_size,
                                            double epsilon, Variant variant) {
  if (domain_size < 1) {
    return Status::InvalidArgument("unary encoding domain must be >= 1");
  }
  PRIVSHAPE_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  double p, q;
  if (variant == Variant::kSymmetric) {
    double e2 = std::exp(epsilon / 2.0);
    p = e2 / (e2 + 1.0);
    q = 1.0 - p;
  } else {
    p = 0.5;
    q = 1.0 / (std::exp(epsilon) + 1.0);
  }
  // SUE's e^(epsilon/2) overflows past epsilon ~ 1419.6: p = inf / inf.
  if (std::isnan(p)) {
    return Status::InvalidArgument(
        "epsilon too large: e^(epsilon/2) overflows");
  }
  return UnaryEncoding(domain_size, epsilon, p, q);
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

PS_RNG_WORDS(d_)
Status UnaryEncoding::SubmitUser(size_t value, Rng* rng) {
  if (value >= d_) {
    return Status::OutOfRange("unary encoding input outside domain");
  }
  return SubmitBits(PerturbValue(value, rng));
}

Status UnaryEncoding::SubmitBits(const std::vector<uint8_t>& bits) {
  if (bits.size() != d_) {
    return Status::InvalidArgument("bit vector length mismatch");
  }
  for (size_t i = 0; i < d_; ++i) {
    if (bits[i]) ++bit_counts_[i];
  }
  ++n_;
  return Status::Ok();
}

std::vector<double> UnaryEncoding::EstimateCounts() const {
  std::vector<double> out(d_);
  double n = static_cast<double>(n_);
  for (size_t v = 0; v < d_; ++v) {
    out[v] = (static_cast<double>(bit_counts_[v]) - n * q_) / (p_ - q_);
  }
  return out;
}

void UnaryEncoding::Reset() {
  std::fill(bit_counts_.begin(), bit_counts_.end(), 0);
  n_ = 0;
}

}  // namespace privshape::ldp
