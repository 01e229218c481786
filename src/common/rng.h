#ifndef PRIVSHAPE_COMMON_RNG_H_
#define PRIVSHAPE_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

namespace privshape {

/// Deterministically derives an independent stream seed from a base seed
/// and a stream index (SplitMix64 finalizer over the combined words).
///
/// This is how every simulated user gets its own reproducible randomness:
/// user i's draws depend only on (base, i), never on how many other users
/// ran before it or on which thread/shard processed it. The single-threaded
/// core pipeline and the multi-threaded collector both derive per-user
/// engines through this function, which is what makes their outputs
/// byte-identical for a fixed seed.
inline uint64_t DeriveSeed(uint64_t base, uint64_t stream) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Drop-in mt19937_64 with lazy seeding and a lazy first twist.
///
/// Emits the exact output stream of std::mt19937_64 (the generator is
/// fully specified by the standard, so this is checked bit-for-bit in
/// tests), but defers the work: std::mt19937_64 seeds all 312 state words
/// up front and block-twists all 312 on the first draw (~2.4us on a small
/// core) — yet a simulated client answering one collection round draws
/// only a handful of values. Output k (for k < n - m = 156) depends only
/// on seeded words k, k+1 and k+m, so this engine seeds just the prefix
/// it needs and runs the recurrence straight over it, for one output or
/// a whole block at once (LazyFill). Hot-path sessions never pay for
/// state they do not consume; heavy consumers (series generators,
/// shuffles) transparently materialize a real std::mt19937_64 at output
/// 156 and continue from it, so long streams cost what they always did.
///
/// Even the lazy first output needs 157 seeded words, and seeding them is
/// one serial chain of 156 multiply/xor/shift steps: ~320 ns per engine
/// on a 4-vCPU x86-64 Xeon VM (gcc 12). SeedFresh runs the chains of up
/// to kSeedLanes fresh engines side by side, so the core overlaps them
/// (~80 ns per engine at 8 there). It writes exactly the words SeedTo
/// would and consumes no output, so every stream is unchanged.
class LazyMt64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Seeding chains SeedFresh interleaves. At 16 the compiler runs out of
  /// registers; the chain's 64-bit multiply has no SSE2/AVX2 lane form, so
  /// this is plain scalar code at every SIMD level.
  static constexpr size_t kSeedLanes = 8;

  /// Seeded words the first `outputs` draws of a fresh engine read
  /// (output k reads up to word k + m), or 0 when there is nothing worth
  /// seeding ahead: no draws, or more than the lazy prefix, which FillU64
  /// serves from a full engine anyway.
  static constexpr size_t SeedWordsFor(size_t outputs) {
    return outputs == 0 || outputs > kLazyOutputs ? 0 : outputs + kM;
  }

  /// Seeds the first `words` state words (clamped to n = 312) of every
  /// fresh engine among engines[0..count) — fresh meaning constructed and
  /// untouched since — with the chains of up to kSeedLanes of them
  /// interleaved. Writes exactly the words SeedTo would and consumes no
  /// output. Any other engine (already drawn from, already seeded, or
  /// materialized) is left as it is; its own lazy SeedTo still serves it.
  static void SeedFresh(LazyMt64* const* engines, size_t count,
                        size_t words) {
    words = std::min(words, kN);
    if (words <= 1) return;
    LazyMt64* lanes[kSeedLanes];
    for (size_t e = 0; e < count;) {
      size_t used = 0;
      for (; e < count && used < kSeedLanes; ++e) {
        // Any draw seeds past word 156 or builds the full engine.
        bool fresh = engines[e]->seeded_ == 1 && !engines[e]->full_;
        if (fresh) lanes[used++] = engines[e];
      }
      if (used > 0) {
        SeedLanes(lanes, used, words, std::make_index_sequence<kSeedLanes>());
      }
    }
  }

  explicit LazyMt64(uint64_t seed) : seed_(seed), seeded_(1) {
    state_[0] = seed;
  }

  result_type operator()() {
    if (full_) return (*full_)();
    if (pos_ == kLazyOutputs) {
      // Past the lazily computable prefix: replay into a full engine
      // (discard is exact) and delegate from here on.
      full_.emplace(seed_);
      full_->discard(pos_);
      return (*full_)();
    }
    uint64_t x;
    LazyFill(&x, 1);
    return x;
  }

  void discard(unsigned long long z) {  // NOLINT(runtime/int)
    for (; z > 0; --z) (*this)();
  }

  /// Bulk draw: writes the next `n` outputs of the stream into `out`,
  /// exactly as `n` successive operator() calls would. A request that
  /// would cross the lazy prefix materializes the full engine once up
  /// front; one inside it seeds once and runs the recurrence as one loop
  /// (LazyFill), so neither pays a per-word position check — this is the
  /// primitive behind the batched OUE/GRR bit generation.
  void FillU64(uint64_t* out, size_t n) {
    if (!full_ && pos_ + n > kLazyOutputs) {
      full_.emplace(seed_);
      full_->discard(pos_);
    }
    if (full_) {
      for (size_t i = 0; i < n; ++i) out[i] = (*full_)();
      return;
    }
    LazyFill(out, n);
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr size_t kLazyOutputs = kN - kM;
  static constexpr uint64_t kA = 0xb5026f5aa96619e9ULL;
  static constexpr uint64_t kF = 6364136223846793005ULL;
  static constexpr int kR = 31;
  static constexpr uint64_t kLowerMask = (uint64_t{1} << kR) - 1;
  static constexpr uint64_t kUpperMask = ~kLowerMask;

  /// Outputs pos_ .. pos_ + n - 1 of the lazy prefix (pos_ + n <= 156):
  /// the standard recurrence for x_{n+k}, then tempering, as specified.
  /// Output k reads seeded words k, k + 1 and k + m, all of the original
  /// seeded state because k + m < n, so one SeedTo covers the block and
  /// the loop reads them through a local pointer. The twist's odd-y term
  /// is a mask, not the standard's `(y & 1) ? a : 0` (the same word):
  /// SSE2 has no 64-bit compare, and with the mask gcc -O3 vectorizes
  /// the loop.
  void LazyFill(uint64_t* out, size_t n) {
    SeedTo(pos_ + n + kM);
    const uint64_t* s = state_ + pos_;
    for (size_t k = 0; k < n; ++k) {
      uint64_t y = (s[k] & kUpperMask) | (s[k + 1] & kLowerMask);
      uint64_t x = s[k + kM] ^ (y >> 1) ^ (kA & (0 - (y & 1)));
      x ^= (x >> 29) & 0x5555555555555555ULL;
      x ^= (x << 17) & 0x71d67fffeda60000ULL;
      x ^= (x << 37) & 0xfff7eee000000000ULL;
      x ^= x >> 43;
      out[k] = x;
    }
    pos_ += n;
  }

  void SeedTo(size_t count) {
    for (; seeded_ < count; ++seeded_) {
      state_[seeded_] =
          kF * (state_[seeded_ - 1] ^ (state_[seeded_ - 1] >> 62)) +
          seeded_;
    }
  }

  /// SeedTo(words) for `used` (<= kSeedLanes) fresh engines at once. The
  /// group is padded to the full width with chains into a throwaway
  /// buffer, and each step is one statement per lane (a fold over the
  /// lane indices L), so every chain value stays in a register at -O2.
  template <size_t... L>
  static void SeedLanes(LazyMt64* const* lanes, size_t used, size_t words,
                        std::index_sequence<L...>) {
    uint64_t sink[kN];
    uint64_t* out[] = {(L < used ? lanes[L]->state_ : sink)...};
    uint64_t x[] = {(L < used ? lanes[L]->state_[0] : 0)...};
    for (size_t i = 1; i < words; ++i) {
      ((x[L] = kF * (x[L] ^ (x[L] >> 62)) + i, out[L][i] = x[L]), ...);
    }
    for (size_t l = 0; l < used; ++l) lanes[l]->seeded_ = words;
  }

  uint64_t state_[kN];  // seeded prefix only; filled on demand
  uint64_t seed_;
  size_t seeded_;
  size_t pos_ = 0;
  std::optional<std::mt19937_64> full_;
};

/// Maps a probability to the raw-u64 acceptance threshold used by the
/// batched Bernoulli rule `bit = (u < ThresholdForProbability(p))` for a
/// uniform engine word u: threshold = round-toward-zero of p * 2^64, so
/// the realized probability is within 2^-64 of the double `p` itself
/// (p's own representation error dwarfs this for any LDP parameter).
/// Clamps: p <= 0 never fires, p >= 1 fires for every word but
/// u == 2^64 - 1 (probability 2^-64; no validated mechanism passes
/// p outside (0, 1)).
inline uint64_t ThresholdForProbability(double p) {
  if (p <= 0.0) return 0;
  double scaled = std::ldexp(p, 64);
  if (scaled >= 18446744073709551616.0) return ~uint64_t{0};
  return static_cast<uint64_t>(scaled);
}

/// Maps one uniform engine word to a uniform index in [0, n) by the
/// multiply-shift (Lemire) reduction: high 64 bits of u * n. Bias is at
/// most n / 2^64 — immaterial for any candidate-domain n — and unlike
/// rejection sampling it consumes exactly one word, which is what makes
/// batched GRR draws possible (fixed words per report).
inline uint64_t BoundedFromU64(uint64_t u, uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(u) * n) >> 64);
}

/// Deterministic random engine used across the library.
///
/// Every randomized component takes a Rng& (or a seed) explicitly so tests
/// and benchmarks are reproducible; there is no hidden global generator.
/// The bit stream is exactly std::mt19937_64's (via LazyMt64 above), so
/// per-user seeding stays cheap on the collection hot path without
/// changing a single draw anywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n); n must be positive.
  size_t Index(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Standard (or scaled) normal draw.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Samples an index proportionally to the given weights; a weight that
  /// is not positive counts as 0. When no weight is positive (all zero or
  /// negative), draws a uniform Index(n). Returns n - 1 as a fallback only
  /// when rounding puts the draw at or past the last partial sum; returns
  /// 0 for an empty vector.
  size_t Discrete(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Bulk raw draw: the next `n` engine outputs, in stream order. The
  /// batched LDP paths (ThresholdForProbability / BoundedFromU64 over a
  /// block of words) consume randomness through this instead of one
  /// distribution call per bit.
  void FillU64(uint64_t* out, size_t n) { engine_.FillU64(out, n); }

  /// Seeds the engines of Rngs built together (rngs[0..count), typically
  /// one per user of a serving block) ahead of their first `outputs` draws
  /// each, through LazyMt64::SeedFresh. Draws nothing: every stream stays
  /// exactly what it would be unseeded.
  static void SeedFresh(Rng* const* rngs, size_t count, size_t outputs) {
    size_t words = LazyMt64::SeedWordsFor(outputs);
    LazyMt64* engines[LazyMt64::kSeedLanes];
    for (size_t begin = 0; begin < count; begin += LazyMt64::kSeedLanes) {
      size_t n = std::min(LazyMt64::kSeedLanes, count - begin);
      for (size_t i = 0; i < n; ++i) engines[i] = &rngs[begin + i]->engine_;
      LazyMt64::SeedFresh(engines, n, words);
    }
  }

  /// Derives an independent child engine; used to give each simulated user
  /// or worker thread its own stream.
  Rng Fork() { return Rng(engine_()); }

  LazyMt64& engine() { return engine_; }

 private:
  LazyMt64 engine_;
};

}  // namespace privshape

#endif  // PRIVSHAPE_COMMON_RNG_H_
