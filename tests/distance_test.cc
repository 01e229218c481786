#include "distance/distance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "common/rng.h"
#include "series/sequence.h"

namespace privshape {
namespace {

using dist::DtwSymbolic;
using dist::EditDistance;
using dist::EuclideanSymbolic;
using dist::MakeDistance;
using dist::Metric;

Sequence Seq(const std::string& s) { return *SequenceFromString(s); }

TEST(MetricTest, FactoryProducesMatchingMetric) {
  const std::pair<Metric, std::string> kNamed[] = {
      {Metric::kDtw, "dtw"},
      {Metric::kSed, "sed"},
      {Metric::kEuclidean, "euclidean"},
      {Metric::kHausdorff, "hausdorff"}};
  for (const auto& [m, name] : kNamed) {
    auto d = MakeDistance(m);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->metric(), m);
    EXPECT_EQ(dist::MetricName(m), name);
  }
}

TEST(DtwTest, IdenticalSequencesAreZero) {
  EXPECT_DOUBLE_EQ(DtwSymbolic(Seq("abca"), Seq("abca")), 0.0);
}

TEST(DtwTest, WarpingAbsorbsRepeats) {
  // DTW warps the time axis, so "abc" matches "aabbcc" exactly.
  EXPECT_DOUBLE_EQ(DtwSymbolic(Seq("abc"), Seq("aabbcc")), 0.0);
}

TEST(DtwTest, KnownSmallExample) {
  // a=0 vs b=1 at every aligned step: single substitution costs 1.
  EXPECT_DOUBLE_EQ(DtwSymbolic(Seq("a"), Seq("b")), 1.0);
  EXPECT_DOUBLE_EQ(DtwSymbolic(Seq("a"), Seq("c")), 2.0);
}

TEST(DtwTest, SymmetricOnRandomInputs) {
  Rng rng(21);
  for (int trial = 0; trial < 100; ++trial) {
    Sequence a, b;
    for (size_t i = 0; i < 1 + rng.Index(8); ++i) {
      a.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    for (size_t i = 0; i < 1 + rng.Index(8); ++i) {
      b.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    EXPECT_DOUBLE_EQ(DtwSymbolic(a, b), DtwSymbolic(b, a));
  }
}

TEST(DtwTest, EmptyVsEmptyIsZero) {
  EXPECT_DOUBLE_EQ(DtwSymbolic({}, {}), 0.0);
}

TEST(SedTest, ClassicLevenshteinCases) {
  EXPECT_DOUBLE_EQ(EditDistance(Seq("abc"), Seq("abc")), 0.0);
  EXPECT_DOUBLE_EQ(EditDistance(Seq("abc"), Seq("abd")), 1.0);
  EXPECT_DOUBLE_EQ(EditDistance(Seq("abc"), Seq("ab")), 1.0);
  EXPECT_DOUBLE_EQ(EditDistance(Seq("abc"), Seq("bc")), 1.0);
  EXPECT_DOUBLE_EQ(EditDistance(Seq(""), Seq("abc")), 3.0);
  EXPECT_DOUBLE_EQ(EditDistance(Seq("abcd"), Seq("badc")), 3.0);
}

TEST(SedTest, TriangleInequalityOnRandomInputs) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    Sequence a, b, c;
    for (size_t i = 0; i < rng.Index(7); ++i) {
      a.push_back(static_cast<Symbol>(rng.Index(3)));
    }
    for (size_t i = 0; i < rng.Index(7); ++i) {
      b.push_back(static_cast<Symbol>(rng.Index(3)));
    }
    for (size_t i = 0; i < rng.Index(7); ++i) {
      c.push_back(static_cast<Symbol>(rng.Index(3)));
    }
    EXPECT_LE(EditDistance(a, c),
              EditDistance(a, b) + EditDistance(b, c) + 1e-12);
  }
}

TEST(EuclideanSymbolicTest, EqualLength) {
  // (0-1)^2 + (2-1)^2 = 2.
  EXPECT_DOUBLE_EQ(EuclideanSymbolic(Seq("ac"), Seq("bb")),
                   std::sqrt(2.0));
}

TEST(EuclideanSymbolicTest, PadsShorterWithLastSymbol) {
  // "ab" padded to "abb" against "abb" -> 0.
  EXPECT_DOUBLE_EQ(EuclideanSymbolic(Seq("ab"), Seq("abb")), 0.0);
}

TEST(EuclideanSymbolicTest, EmptyCases) {
  EXPECT_DOUBLE_EQ(EuclideanSymbolic({}, {}), 0.0);
  EXPECT_GT(EuclideanSymbolic({}, Seq("cc")), 0.0);
}

TEST(HausdorffTest, IdenticalIsZero) {
  auto hausdorff = MakeDistance(Metric::kHausdorff);
  EXPECT_DOUBLE_EQ(hausdorff->Distance(Seq("abc"), Seq("abc")), 0.0);
}

TEST(HausdorffTest, SymmetricAndNonNegative) {
  auto hausdorff = MakeDistance(Metric::kHausdorff);
  Rng rng(24);
  for (int trial = 0; trial < 50; ++trial) {
    Sequence a, b;
    for (size_t i = 0; i < 1 + rng.Index(6); ++i) {
      a.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    for (size_t i = 0; i < 1 + rng.Index(6); ++i) {
      b.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    double d = hausdorff->Distance(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_DOUBLE_EQ(d, hausdorff->Distance(b, a));
  }
}

// Identity-of-indiscernibles + symmetry + non-negativity across all
// metrics, as a parameterized property sweep.
class MetricAxiomsTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricAxiomsTest, BasicAxiomsOnRandomWords) {
  auto distance = MakeDistance(GetParam());
  Rng rng(25);
  for (int trial = 0; trial < 100; ++trial) {
    Sequence a, b;
    for (size_t i = 0; i < 1 + rng.Index(6); ++i) {
      a.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    for (size_t i = 0; i < 1 + rng.Index(6); ++i) {
      b.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    EXPECT_DOUBLE_EQ(distance->Distance(a, a), 0.0);
    EXPECT_GE(distance->Distance(a, b), 0.0);
    EXPECT_DOUBLE_EQ(distance->Distance(a, b), distance->Distance(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricAxiomsTest,
                         ::testing::Values(Metric::kDtw, Metric::kSed,
                                           Metric::kEuclidean,
                                           Metric::kHausdorff));

// --- Scratch-reusing view kernels -----------------------------------------
//
// The view overloads must be bit-identical to the allocating ones: the
// collector's byte-identical determinism contract rides on it.

Sequence RandomWord(Rng* rng, size_t max_len, int alphabet) {
  Sequence word;
  size_t len = rng->Index(max_len + 1);  // includes empty words
  for (size_t i = 0; i < len; ++i) {
    word.push_back(static_cast<Symbol>(rng->Index(alphabet)));
  }
  return word;
}

TEST(ScratchKernelTest, DtwScratchOverloadBitIdentical) {
  Rng rng(0xd7a);
  auto dtw = MakeDistance(Metric::kDtw);
  dist::DtwScratch scratch;  // deliberately reused across ALL pairs
  for (int trial = 0; trial < 300; ++trial) {
    Sequence a = RandomWord(&rng, 9, 5);
    Sequence b = RandomWord(&rng, 9, 5);
    double expect = DtwSymbolic(a, b);
    double got =
        dtw->Distance(dist::SymbolView(a), dist::SymbolView(b), &scratch);
    // Bit-equal, not just close: same kernel, same operation order.
    EXPECT_EQ(expect, got) << "trial=" << trial;
  }
}

TEST(ScratchKernelTest, EditScratchOverloadBitIdentical) {
  Rng rng(0x5ed);
  auto sed = MakeDistance(Metric::kSed);
  dist::DtwScratch scratch;
  for (int trial = 0; trial < 300; ++trial) {
    Sequence a = RandomWord(&rng, 9, 5);
    Sequence b = RandomWord(&rng, 9, 5);
    double expect = EditDistance(a, b);
    double got =
        sed->Distance(dist::SymbolView(a), dist::SymbolView(b), &scratch);
    EXPECT_EQ(expect, got) << trial;
  }
}

TEST(ScratchKernelTest, VirtualSpanOverloadsMatchAllMetrics) {
  Rng rng(0x11ad);
  dist::DtwScratch scratch;
  for (Metric m : {Metric::kDtw, Metric::kSed, Metric::kEuclidean,
                   Metric::kHausdorff}) {
    auto distance = MakeDistance(m);
    for (int trial = 0; trial < 120; ++trial) {
      Sequence a = RandomWord(&rng, 8, 4);
      Sequence b = RandomWord(&rng, 8, 4);
      double expect = distance->Distance(a, b);
      double got = distance->Distance(dist::SymbolView(a),
                                      dist::SymbolView(b), &scratch);
      double nullscratch = distance->Distance(dist::SymbolView(a),
                                              dist::SymbolView(b), nullptr);
      EXPECT_EQ(expect, got) << dist::MetricName(m) << " trial " << trial;
      EXPECT_EQ(expect, nullscratch) << dist::MetricName(m);
    }
  }
}

TEST(ScratchKernelTest, SpanViewsOfPrefixesMatchCopies) {
  // The prefix-view path of candidate matching: viewing the first k
  // symbols equals copying them into a fresh Sequence.
  Sequence word = Seq("cabdacbd");
  Sequence shape = Seq("abc");
  auto sed = MakeDistance(Metric::kSed);
  auto dtw = MakeDistance(Metric::kDtw);
  dist::DtwScratch scratch;
  for (size_t k = 0; k <= word.size(); ++k) {
    Sequence copy(word.begin(), word.begin() + static_cast<long>(k));
    dist::SymbolView view = dist::SymbolView(word).Sub(0, k);
    EXPECT_EQ(EditDistance(copy, shape),
              sed->Distance(view, dist::SymbolView(shape), &scratch));
    EXPECT_EQ(DtwSymbolic(copy, shape),
              dtw->Distance(view, dist::SymbolView(shape), &scratch));
  }
}

}  // namespace
}  // namespace privshape
