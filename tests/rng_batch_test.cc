// Regression tests pinning the batched-randomness canonical order.
// Since this PR, GRR consumes exactly two raw engine words per draw and
// unary encoding exactly one word per cell (threshold compares); every
// report path — in-process rounds and wire sessions — shares these
// implementations, so these tests are the contract that keeps the
// consumption order (and with it the byte-identical determinism matrix)
// from drifting.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"

namespace privshape {
namespace {

TEST(FillU64Test, MatchesStdMt19937_64Stream) {
  // Crossing the 156-output lazy prefix exercises both the lazy loop and
  // the materialized-engine bulk path.
  LazyMt64 lazy(123456789);
  std::mt19937_64 reference(123456789);
  std::vector<uint64_t> got(400);
  lazy.FillU64(got.data(), got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], reference()) << "output " << i;
  }
}

TEST(FillU64Test, ChunkedFillsEqualOneBigFill) {
  LazyMt64 a(42), b(42);
  std::vector<uint64_t> big(300), chunked(300);
  a.FillU64(big.data(), big.size());
  b.FillU64(chunked.data(), 7);
  b.FillU64(chunked.data() + 7, 150);  // crosses the lazy prefix mid-way
  b.FillU64(chunked.data() + 157, 143);
  EXPECT_EQ(big, chunked);
}

TEST(FillU64Test, InterleavesExactlyWithSingleDraws) {
  LazyMt64 a(7), b(7);
  std::vector<uint64_t> buf(5);
  a.FillU64(buf.data(), 5);
  uint64_t next_a = a();
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(buf[i], b());
  EXPECT_EQ(next_a, b());
}

// --- Block seeding ---------------------------------------------------------

/// `count` engines on distinct seeds, or on a few repeated ones.
std::vector<uint64_t> SeedsFor(size_t count, bool repeated) {
  std::vector<uint64_t> seeds;
  for (size_t e = 0; e < count; ++e) {
    seeds.push_back(repeated ? 1000 + e % 3 : DeriveSeed(5, e));
  }
  return seeds;
}

/// Draws 400 outputs one at a time (the lazy path, across its 156-output
/// prefix) and checks them against std::mt19937_64 after `skip` outputs.
void ExpectStdStream(LazyMt64* engine, uint64_t seed, size_t skip,
                     const std::string& where) {
  std::mt19937_64 reference(seed);
  reference.discard(skip);
  for (size_t k = 0; k < 400; ++k) {
    ASSERT_EQ((*engine)(), reference()) << where << ", output " << skip + k;
  }
}

TEST(SeedFreshTest, FreshEnginesKeepTheStdStreamAtEveryDepth) {
  // 1..17 engines: partial groups, one full group of kSeedLanes, two full
  // groups and a partial one. 400 words is clamped to the 312-word state.
  for (bool repeated : {false, true}) {
    for (size_t count = 1; count <= 2 * LazyMt64::kSeedLanes + 1; ++count) {
      for (size_t words : {0, 1, 157, 158, 159, 264, 312, 400}) {
        std::vector<uint64_t> seeds = SeedsFor(count, repeated);
        std::vector<LazyMt64> engines(seeds.begin(), seeds.end());
        std::vector<LazyMt64*> ptrs;
        for (LazyMt64& engine : engines) ptrs.push_back(&engine);
        LazyMt64::SeedFresh(ptrs.data(), count, words);
        for (size_t e = 0; e < count; ++e) {
          ExpectStdStream(&engines[e], seeds[e], 0,
                          "count " + std::to_string(count) + ", words " +
                              std::to_string(words) + ", engine " +
                              std::to_string(e));
        }
      }
    }
  }
}

TEST(SeedFreshTest, EnginesThatAreNotFreshPassThroughUnchanged) {
  // Drawn from (lazily seeded past word 157), materialized (drawn past
  // the lazy prefix), and already block-seeded engines, mixed with fresh
  // ones across two groups: every stream continues where it was.
  std::vector<uint64_t> seeds = SeedsFor(11, false);
  std::vector<LazyMt64> engines(seeds.begin(), seeds.end());
  std::vector<size_t> drawn(engines.size(), 0);
  std::vector<uint64_t> burn(200);
  engines[1].FillU64(burn.data(), 3);
  drawn[1] = 3;
  engines[4].FillU64(burn.data(), 200);
  drawn[4] = 200;
  engines[7].FillU64(burn.data(), 156);  // exactly the lazy prefix
  drawn[7] = 156;
  LazyMt64* seeded = &engines[9];
  LazyMt64::SeedFresh(&seeded, 1, 158);
  std::vector<LazyMt64*> ptrs;
  for (LazyMt64& engine : engines) ptrs.push_back(&engine);
  LazyMt64::SeedFresh(ptrs.data(), ptrs.size(), 312);
  for (size_t e = 0; e < engines.size(); ++e) {
    ExpectStdStream(&engines[e], seeds[e], drawn[e],
                    "engine " + std::to_string(e));
  }
}

TEST(SeedFreshTest, SeedWordsForCoversTheLazyPrefixOnly) {
  EXPECT_EQ(LazyMt64::SeedWordsFor(0), 0u);
  EXPECT_EQ(LazyMt64::SeedWordsFor(1), 157u);   // output 0 reads word 156
  EXPECT_EQ(LazyMt64::SeedWordsFor(2), 158u);   // a GRR report
  EXPECT_EQ(LazyMt64::SeedWordsFor(156), 312u);
  EXPECT_EQ(LazyMt64::SeedWordsFor(157), 0u);   // FillU64 goes full
}

TEST(SeedFreshTest, RngFormDrawsNothing) {
  // Rng::SeedFresh over more Rngs than one group, at a GRR depth: every
  // stream still starts at std::mt19937_64's first output.
  std::vector<uint64_t> seeds = SeedsFor(LazyMt64::kSeedLanes + 3, false);
  std::vector<Rng> rngs(seeds.begin(), seeds.end());
  std::vector<Rng*> ptrs;
  for (Rng& rng : rngs) ptrs.push_back(&rng);
  Rng::SeedFresh(ptrs.data(), ptrs.size(), 2);
  for (size_t e = 0; e < rngs.size(); ++e) {
    ExpectStdStream(&rngs[e].engine(), seeds[e], 0,
                    "rng " + std::to_string(e));
  }
}

TEST(ThresholdForProbabilityTest, EdgesAndMonotonicity) {
  EXPECT_EQ(ThresholdForProbability(0.0), 0u);
  EXPECT_EQ(ThresholdForProbability(-1.0), 0u);
  EXPECT_EQ(ThresholdForProbability(1.0), ~uint64_t{0});
  EXPECT_EQ(ThresholdForProbability(2.0), ~uint64_t{0});
  EXPECT_EQ(ThresholdForProbability(0.5), uint64_t{1} << 63);
  EXPECT_EQ(ThresholdForProbability(0.25), uint64_t{1} << 62);
  EXPECT_LT(ThresholdForProbability(0.3), ThresholdForProbability(0.31));
}

TEST(BoundedFromU64Test, StaysInRangeAndCoversIt) {
  for (uint64_t n : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    EXPECT_EQ(BoundedFromU64(0, n), 0u);
    EXPECT_EQ(BoundedFromU64(~uint64_t{0}, n), n - 1);
  }
  // Equal slices map to equal indices: the midpoint word of n = 2 flips.
  EXPECT_EQ(BoundedFromU64((uint64_t{1} << 63) - 1, 2), 0u);
  EXPECT_EQ(BoundedFromU64(uint64_t{1} << 63, 2), 1u);
}

TEST(LessThanU64Test, MatchesScalarCompareAtEveryOffset) {
  // Lengths around the vector width cover the SIMD body and scalar tail.
  Rng rng(99);
  for (size_t n = 0; n <= 19; ++n) {
    std::vector<uint64_t> in(n);
    rng.FillU64(in.data(), n);
    if (n > 2) in[1] = 0;  // plant exact edges
    if (n > 3) in[2] = ~uint64_t{0};
    uint64_t threshold = n % 2 == 0 ? ThresholdForProbability(0.5)
                                    : ThresholdForProbability(0.1);
    std::vector<uint8_t> got(n, 0xAA);
    simd::LessThanU64(in.data(), n, threshold, got.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], in[i] < threshold ? 1 : 0) << "n=" << n << " i=" << i;
    }
  }
}

TEST(GrrBatchTest, ConsumesExactlyTwoWordsPerDraw) {
  auto grr = ldp::Grr::Create(10, 1.0);
  ASSERT_TRUE(grr.ok());
  Rng rng(2024);
  Rng reference(2024);
  uint64_t expected[2];
  reference.FillU64(expected, 2);
  size_t out = grr->PerturbValue(3, &rng);
  // Replay the canonical rule on the same two words.
  size_t want;
  if (expected[0] < ThresholdForProbability(grr->p())) {
    want = 3;
  } else {
    size_t r = static_cast<size_t>(BoundedFromU64(expected[1], 9));
    want = r >= 3 ? r + 1 : r;
  }
  EXPECT_EQ(out, want);
  // Both engines must now be in the same position: next draws agree.
  uint64_t a[1], b[1];
  rng.FillU64(a, 1);
  reference.FillU64(b, 1);
  EXPECT_EQ(a[0], b[0]);
}

TEST(GrrBatchTest, KeepRateTracksP) {
  auto grr = ldp::Grr::Create(4, 2.0);
  ASSERT_TRUE(grr.ok());
  Rng rng(555);
  int kept = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (grr->PerturbValue(2, &rng) == 2) ++kept;
  }
  // P[report = true value] = p + q (keep, or flip landing back is
  // impossible under GRR's flip-to-other rule, so just p).
  EXPECT_NEAR(static_cast<double>(kept) / kTrials, grr->p(), 0.01);
}

TEST(OueBatchTest, EncodeConsumesOneWordPerCell) {
  const size_t kCells = 13;
  auto oue = ldp::UnaryEncoding::Create(kCells, 1.5,
                                        ldp::UnaryEncoding::Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng rng(31337);
  Rng reference(31337);
  std::vector<uint64_t> expected(kCells);
  reference.FillU64(expected.data(), kCells);

  std::vector<uint64_t> words;
  std::vector<uint8_t> bits;
  const size_t kValue = 5;
  oue->EncodeInto(kValue, &rng, &words, &bits);
  ASSERT_EQ(bits.size(), kCells);
  ASSERT_EQ(words, expected);
  for (size_t i = 0; i < kCells; ++i) {
    double keep = i == kValue ? oue->p() : oue->q();
    EXPECT_EQ(bits[i], expected[i] < ThresholdForProbability(keep) ? 1 : 0)
        << "cell " << i;
  }
  // Engine position: exactly kCells words consumed.
  uint64_t a[1], b[1];
  rng.FillU64(a, 1);
  reference.FillU64(b, 1);
  EXPECT_EQ(a[0], b[0]);
}

TEST(OueBatchTest, PerturbValueDelegatesToEncodeInto) {
  auto oue = ldp::UnaryEncoding::Create(9, 0.8,
                                        ldp::UnaryEncoding::Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng a(77), b(77);
  std::vector<uint8_t> from_perturb = oue->PerturbValue(4, &a);
  std::vector<uint64_t> words;
  std::vector<uint8_t> from_encode;
  oue->EncodeInto(4, &b, &words, &from_encode);
  EXPECT_EQ(from_perturb, from_encode);
}

}  // namespace
}  // namespace privshape
