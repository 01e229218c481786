/// \file
/// PS_SIMD dispatch: the one place that decides which vector width the
/// hot-path kernels compile to. Consumers (the SoA distance kernels in
/// `src/distance/candidate_table.cc`, the batched LDP bit fills in
/// `src/ldp`) write their inner loops once against `simd::VecI16` /
/// `simd::LessThanU64` and get the widest instruction set the build
/// allows:
///
///   PS_SIMD_LEVEL 2 — AVX2, 16 int16 lanes (needs -march=native /
///                     -mavx2; `PRIVSHAPE_NATIVE=ON` in CMake)
///   PS_SIMD_LEVEL 1 — SSE2, 8 int16 lanes (the x86-64 baseline, so
///                     default builds vectorize 8-wide)
///   PS_SIMD_LEVEL 0 — scalar, 1 lane (non-x86, or `PRIVSHAPE_SIMD=OFF`,
///                     which defines PRIVSHAPE_SIMD_DISABLED)
///
/// Contract: every lane of every VecI16 operation performs EXACTLY the
/// scalar int16 operation of `ScalarI16` (min, saturating add, |a-b| of
/// non-negative values, != as a 0/1 cost). Integer operations have no
/// rounding, so a kernel vectorized *across independent problems* (one
/// candidate per lane) produces identical results at every level. The
/// caller owns the range: the DP kernels keep every finite value below
/// INT16_MAX, which they use as +infinity (see candidate_table.cc). The
/// scalar double kernels in `src/distance/distance.cc` remain the
/// always-built reference; the exactness suite
/// (tests/distance_simd_test.cc) and the fuzz differential harness
/// (fuzz/fuzz_candidate_table.cc) enforce the match.
///
/// The level is a compile-time constant on purpose: runtime dispatch
/// would put an indirect branch in a loop that runs millions of times
/// per round, and the determinism contract makes every level produce
/// the same bytes anyway, so there is nothing to negotiate at runtime.

#ifndef PRIVSHAPE_COMMON_SIMD_H_
#define PRIVSHAPE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(PRIVSHAPE_SIMD_DISABLED)
#define PS_SIMD_LEVEL 0
#elif defined(__AVX2__)
#define PS_SIMD_LEVEL 2
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define PS_SIMD_LEVEL 1
#else
#define PS_SIMD_LEVEL 0
#endif

#if PS_SIMD_LEVEL >= 1
#include <immintrin.h>
#endif

namespace privshape::simd {

/// The resolved PS_SIMD_LEVEL as a typed constant (0 scalar, 1 SSE2,
/// 2 AVX2) for code that branches on the level without the macro.
inline constexpr int kLevel = PS_SIMD_LEVEL;

/// Human-readable level name, recorded in bench meta so BENCH_*.json
/// runs are never compared across different instruction sets silently.
inline constexpr const char* kLevelName =
#if PS_SIMD_LEVEL == 2
    "avx2";
#elif PS_SIMD_LEVEL == 1
    "sse2";
#else
    "scalar";
#endif

/// One-lane fallback; also the reference semantics every wider type
/// must match lane-for-lane.
struct ScalarI16 {
  static constexpr size_t kLanes = 1;
  int16_t v;

  static ScalarI16 Load(const int16_t* p) { return {*p}; }
  void Store(int16_t* p) const { *p = v; }
  static ScalarI16 Set1(int16_t x) { return {x}; }
  static ScalarI16 Min(ScalarI16 a, ScalarI16 b) {
    return {a.v < b.v ? a.v : b.v};
  }
  /// a + b clamped to [INT16_MIN, INT16_MAX] (paddsw semantics).
  static ScalarI16 AddSat(ScalarI16 a, ScalarI16 b) {
    int32_t sum = int32_t{a.v} + int32_t{b.v};
    sum = sum > INT16_MAX ? INT16_MAX : (sum < INT16_MIN ? INT16_MIN : sum);
    return {static_cast<int16_t>(sum)};
  }
  /// |a - b| for non-negative a and b (the DTW cell cost).
  static ScalarI16 AbsDiff(ScalarI16 a, ScalarI16 b) {
    return {static_cast<int16_t>(a.v > b.v ? a.v - b.v : b.v - a.v)};
  }
  /// 0 where a == b, 1 elsewhere (the SED substitution cost).
  static ScalarI16 NeqCost(ScalarI16 a, ScalarI16 b) {
    return {static_cast<int16_t>(a.v == b.v ? 0 : 1)};
  }
};

#if PS_SIMD_LEVEL >= 1
struct SseI16 {
  static constexpr size_t kLanes = 8;
  __m128i v;

  static SseI16 Load(const int16_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void Store(int16_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static SseI16 Set1(int16_t x) { return {_mm_set1_epi16(x)}; }
  static SseI16 Min(SseI16 a, SseI16 b) { return {_mm_min_epi16(a.v, b.v)}; }
  static SseI16 AddSat(SseI16 a, SseI16 b) {
    return {_mm_adds_epi16(a.v, b.v)};
  }
  // SSE2 has no 16-bit |x|; for non-negative lanes the two unsigned
  // saturating differences are max(a - b, 0) and max(b - a, 0), and at
  // most one of them is non-zero.
  static SseI16 AbsDiff(SseI16 a, SseI16 b) {
    return {_mm_or_si128(_mm_subs_epu16(a.v, b.v), _mm_subs_epu16(b.v, a.v))};
  }
  static SseI16 NeqCost(SseI16 a, SseI16 b) {
    return {_mm_andnot_si128(_mm_cmpeq_epi16(a.v, b.v), _mm_set1_epi16(1))};
  }
};
#endif

#if PS_SIMD_LEVEL >= 2
struct AvxI16 {
  static constexpr size_t kLanes = 16;
  __m256i v;

  static AvxI16 Load(const int16_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void Store(int16_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static AvxI16 Set1(int16_t x) { return {_mm256_set1_epi16(x)}; }
  static AvxI16 Min(AvxI16 a, AvxI16 b) {
    return {_mm256_min_epi16(a.v, b.v)};
  }
  static AvxI16 AddSat(AvxI16 a, AvxI16 b) {
    return {_mm256_adds_epi16(a.v, b.v)};
  }
  // Non-negative lanes: a - b cannot overflow, so |a - b| is exact.
  static AvxI16 AbsDiff(AvxI16 a, AvxI16 b) {
    return {_mm256_abs_epi16(_mm256_sub_epi16(a.v, b.v))};
  }
  static AvxI16 NeqCost(AvxI16 a, AvxI16 b) {
    return {_mm256_andnot_si256(_mm256_cmpeq_epi16(a.v, b.v),
                                _mm256_set1_epi16(1))};
  }
};
#endif

/// The widest vector the build allows — what the kernels instantiate.
#if PS_SIMD_LEVEL == 2
using VecI16 = AvxI16;
#elif PS_SIMD_LEVEL == 1
using VecI16 = SseI16;
#else
using VecI16 = ScalarI16;
#endif

/// int16 lanes per VecI16 operation (= candidates per DP lane block in
/// the SoA kernels, and the padding granularity of CandidateTable).
inline constexpr size_t kI16Lanes = VecI16::kLanes;

/// out[i] = (in[i] < threshold) for i in [0, n) — the batched Bernoulli
/// threshold compare over a block of raw u64 engine outputs (the OUE
/// bit fill). Unsigned compare has no direct AVX2 instruction, so the
/// vector path flips the sign bit of both sides and uses the signed
/// 64-bit greater-than; the scalar tail/fallback is branchless (setb).
inline void LessThanU64(const uint64_t* in, size_t n, uint64_t threshold,
                        uint8_t* out) {
  size_t i = 0;
#if PS_SIMD_LEVEL == 2
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(uint64_t{1} << 63));
  const __m256i biased_t = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(threshold)), sign);
  for (; i + 4 <= n; i += 4) {
    __m256i u = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    __m256i lt = _mm256_cmpgt_epi64(biased_t, _mm256_xor_si256(u, sign));
    // The mask lanes are all-ones (or all-zero), so each lane's sign bit
    // is its 0/1 answer. The four bytes go out as one block: GCC 12's
    // -Wstringop-overflow misreads four single-byte stores here.
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(lt));
    const uint8_t bytes[4] = {static_cast<uint8_t>(mask & 1),
                              static_cast<uint8_t>((mask >> 1) & 1),
                              static_cast<uint8_t>((mask >> 2) & 1),
                              static_cast<uint8_t>((mask >> 3) & 1)};
    std::memcpy(out + i, bytes, sizeof(bytes));
  }
#endif
  for (; i < n; ++i) out[i] = in[i] < threshold ? 1 : 0;
}

}  // namespace privshape::simd

#endif  // PRIVSHAPE_COMMON_SIMD_H_
