// Bit-exactness suite for the candidate-trie kernel: at every PS_SIMD
// level (the CI matrix covers AVX2/SSE2 and the PRIVSHAPE_SIMD=OFF scalar
// build), MatchBlock — and MatchInto/Closest, its one-word case — must be
// bit-identical, including tie-breaking, to the always-built scalar
// reference path (core::MatchDistances / core::ClosestCandidate over
// dist::SequenceDistance), for the DTW/SED lane kernel and the per-pair
// Euclidean/Hausdorff loop alike. The shapes below are chosen
// adversarially: odd lengths, length-1 candidates, empty words and
// candidates, duplicates, candidates that are prefixes of others, a real
// P_c frontier, all-equal distances, blocks of 1 to two lane blocks plus
// one words of mixed lengths, the extreme byte symbols 0/1/254/255, and
// word + candidate lengths on both sides of the int16 range guard
// (n + m = 128 runs in int16 lanes, 129 and up takes the scalar kernel,
// pair by pair).

#include "distance/candidate_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/em_selection.h"
#include "distance/distance.h"
#include "trie/trie.h"

namespace privshape {
namespace {

using dist::CandidateTable;
using dist::Metric;
using dist::TableScratch;

std::vector<Metric> VectorizedMetrics() {
  return {Metric::kDtw, Metric::kSed};
}

// Reference: the scalar per-candidate path the table must reproduce.
std::vector<double> Reference(const Sequence& word,
                              const std::vector<Sequence>& candidates,
                              Metric metric, bool prefix) {
  auto distance = dist::MakeDistance(metric);
  return core::MatchDistances(word, candidates, prefix, *distance);
}

void ExpectBitIdentical(const Sequence& word,
                        const std::vector<Sequence>& candidates,
                        Metric metric, bool prefix) {
  auto distance = dist::MakeDistance(metric);
  CandidateTable table = CandidateTable::Build(candidates);
  TableScratch scratch;
  std::vector<double> got;
  table.MatchInto(word, *distance, prefix, &scratch, &got);
  std::vector<double> want = Reference(word, candidates, metric, prefix);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // EXPECT_EQ, not NEAR: the contract is bit-identical doubles.
    EXPECT_EQ(got[i], want[i])
        << dist::MetricName(metric) << " candidate " << i << " prefix "
        << prefix;
  }
  // The argmin (full-word) must match the exhaustive reference,
  // including first-index tie-breaking.
  EXPECT_EQ(table.Closest(word, *distance, &scratch),
            core::ClosestCandidate(word, candidates, *distance));
}

TEST(CandidateTableTest, MatchesReferenceOnMixedAdversarialLengths) {
  // Lengths 1, 2, 3, 5, 7 mixed; several groups, none lane-aligned.
  std::vector<Sequence> candidates = {
      {3},        {0, 1},          {1, 2, 3}, {2, 2, 2, 2, 2},
      {4, 0, 4},  {0, 1, 2, 3, 4}, {1},       {3, 3},
      {0, 2, 4, 1, 3, 0, 2},
  };
  Sequence word = {1, 2, 0, 4, 3};
  for (Metric metric : VectorizedMetrics()) {
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/true);
  }
}

// Candidate counts up to two lane widths and one more.
constexpr size_t kLanesPerSweep = 2 * simd::kI16Lanes;

TEST(CandidateTableTest, NonLaneMultipleCandidateCounts) {
  // Candidate counts 1..2*kLanesPerSweep+1 of one length: sibling-rich
  // tries of every width.
  for (size_t count = 1; count <= 2 * kLanesPerSweep + 1; ++count) {
    std::vector<Sequence> candidates;
    for (size_t c = 0; c < count; ++c) {
      candidates.push_back(
          {static_cast<Symbol>(c % 5), static_cast<Symbol>((c + 2) % 5),
           static_cast<Symbol>((3 * c) % 5)});
    }
    Sequence word = {2, 4, 1};
    for (Metric metric : VectorizedMetrics()) {
      ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
    }
  }
}

TEST(CandidateTableTest, RangeGuardBoundaryWithAllMaxSymbols) {
  // (n + m) * 255 < INT16_MAX holds up to n + m = 128; from 129 on the
  // group takes the scalar kernel. An all-255 word against all-0
  // candidates puts cells near the int16 limit (n = 1, m = 127 gives
  // 127 * 255 = 32385); n + m = 300 would saturate int16 without the
  // guard. With n = 1 and n = 64 the word is no longer than the
  // candidates, so the prefix-on runs keep these sums; with
  // n = total - 1 the prefix cut shortens the word to m.
  for (size_t total : {size_t{128}, size_t{129}, size_t{300}}) {
    for (size_t n : {size_t{1}, size_t{64}, total - 1}) {
      size_t m = total - n;
      Sequence alternating(m, 0);
      for (size_t j = 0; j < m; j += 2) alternating[j] = 255;
      std::vector<Sequence> candidates = {Sequence(m, 255), Sequence(m, 0),
                                          alternating, Sequence(m, 254)};
      // Fill past two lane widths.
      while (candidates.size() <= kLanesPerSweep) {
        candidates.push_back(Sequence(m, candidates.size() % 2 ? 0 : 255));
      }
      for (const Sequence& word : {Sequence(n, 255), Sequence(n, 0)}) {
        for (Metric metric : VectorizedMetrics()) {
          ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
          ExpectBitIdentical(word, candidates, metric, /*prefix=*/true);
        }
      }
    }
  }
}

TEST(CandidateTableTest, LengthOneCandidatesAndWords) {
  std::vector<Sequence> candidates = {{0}, {4}, {2}, {2}, {1}};
  ExpectBitIdentical({3}, candidates, Metric::kDtw, false);
  ExpectBitIdentical({3}, candidates, Metric::kSed, false);
  ExpectBitIdentical({3, 1, 4}, candidates, Metric::kDtw, true);
  ExpectBitIdentical({3, 1, 4}, candidates, Metric::kSed, true);
}

TEST(CandidateTableTest, EmptyWordTakesTheEmptyBranches) {
  // DTW's empty-word rule (sum of levels) and SED's degenerate DP
  // (distance = candidate length) both must match the reference.
  std::vector<Sequence> candidates = {{1, 2}, {0}, {3, 3, 3}};
  ExpectBitIdentical(Sequence{}, candidates, Metric::kDtw, false);
  ExpectBitIdentical(Sequence{}, candidates, Metric::kSed, false);
}

TEST(CandidateTableTest, AllEqualDistancesTieBreakToFirstIndex) {
  // Identical candidates: every distance ties, argmin must be index 0;
  // and a later exact duplicate of the winner must not steal the pick.
  std::vector<Sequence> same(7, Sequence{1, 3, 1});
  auto dtw = dist::MakeDistance(Metric::kDtw);
  CandidateTable table = CandidateTable::Build(same);
  TableScratch scratch;
  EXPECT_EQ(table.Closest(Sequence{2, 2}, *dtw, &scratch), 0u);

  std::vector<Sequence> dup = {{0, 4}, {1, 3, 1}, {2, 2}, {1, 3, 1}};
  CandidateTable dup_table = CandidateTable::Build(dup);
  EXPECT_EQ(dup_table.Closest(Sequence{2, 2}, *dtw, &scratch),
            core::ClosestCandidate(Sequence{2, 2}, dup, *dtw));
}

TEST(CandidateTableTest, TighteningDistancesAndFinalTieAgreeWithReference) {
  // Candidates sorted so the running best tightens monotonically, plus a
  // final exact tie with the incumbent best (d == best must not move the
  // argmin).
  std::vector<Sequence> candidates = {
      {4, 4, 4, 4}, {0, 4, 0, 4}, {1, 2, 3, 4}, {1, 2, 0, 4}, {1, 2, 0, 3},
      {1, 2, 0, 3},
  };
  Sequence word = {1, 2, 0, 3};
  for (Metric metric : VectorizedMetrics()) {
    ExpectBitIdentical(word, candidates, metric, false);
  }
}

TEST(CandidateTableTest, RandomizedSweepStaysBitIdentical) {
  // SAX-sized symbols, then the byte extremes 0/1/254/255: the largest
  // per-cell DTW costs, and SED's compare at both ends of the byte.
  const std::vector<Symbol> alphabets[] = {{0, 1, 2, 3, 4},
                                           {0, 1, 254, 255}};
  Rng rng(0xC0FFEE);
  for (const std::vector<Symbol>& alphabet : alphabets) {
    auto draw = [&] { return alphabet[rng.Index(alphabet.size())]; };
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Sequence> candidates(1 + rng.Index(2 * kLanesPerSweep + 1));
      for (auto& c : candidates) {
        size_t len = 1 + rng.Index(15);
        for (size_t j = 0; j < len; ++j) c.push_back(draw());
      }
      Sequence word;
      size_t word_len = rng.Index(31);
      for (size_t j = 0; j < word_len; ++j) word.push_back(draw());
      for (Metric metric : VectorizedMetrics()) {
        ExpectBitIdentical(word, candidates, metric, trial % 2 == 0);
      }
    }
  }
}

TEST(CandidateTableTest, FallbackMetricsMatchReferenceToo) {
  // Euclidean/Hausdorff have no vectorized kernel; the table must route
  // them through the identical per-candidate loop, and Closest through
  // the same argmin. Hausdorff puts an empty word or candidate at
  // +infinity, so empty words and candidates are drawn too.
  std::vector<Sequence> candidates = {{0, 1, 2}, {2, 1}, {4, 4, 4, 4}};
  Sequence word = {1, 1, 3};
  for (Metric metric : {Metric::kEuclidean, Metric::kHausdorff}) {
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/false);
    ExpectBitIdentical(word, candidates, metric, /*prefix=*/true);
  }
  Rng rng(0xFA11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Sequence> random(1 + rng.Index(8));
    for (auto& c : random) {
      for (size_t j = rng.Index(7); j > 0; --j) {
        c.push_back(static_cast<Symbol>(rng.Index(4)));
      }
    }
    Sequence random_word;
    for (size_t j = rng.Index(8); j > 0; --j) {
      random_word.push_back(static_cast<Symbol>(rng.Index(4)));
    }
    for (Metric metric : {Metric::kEuclidean, Metric::kHausdorff}) {
      ExpectBitIdentical(random_word, random, metric, trial % 2 == 0);
    }
  }
}

TEST(CandidateTableTest, EmptyTableAndNullScratch) {
  CandidateTable empty;
  auto dtw = dist::MakeDistance(Metric::kDtw);
  std::vector<double> out = {1.0, 2.0};
  empty.MatchInto(Sequence{1, 2}, *dtw, false, nullptr, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(empty.Closest(Sequence{1, 2}, *dtw, nullptr), 0u);
}

TEST(CandidateTableTest, ScratchReuseAcrossShapesIsClean) {
  // A scratch grown by a deep trie must not leak state into a later,
  // shallower one or a different metric.
  TableScratch scratch;
  auto dtw = dist::MakeDistance(Metric::kDtw);
  auto sed = dist::MakeDistance(Metric::kSed);
  std::vector<Sequence> longer = {{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}};
  std::vector<Sequence> shorter = {{2, 2}, {0, 4}};
  CandidateTable long_table = CandidateTable::Build(longer);
  CandidateTable short_table = CandidateTable::Build(shorter);
  Sequence word = {1, 3, 0};
  std::vector<double> got;
  long_table.MatchInto(word, *dtw, false, &scratch, &got);
  short_table.MatchInto(word, *sed, false, &scratch, &got);
  std::vector<double> want = Reference(word, shorter, Metric::kSed, false);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

// --- MatchBlock: one word per lane ------------------------------------

// Every row of one MatchBlock call must equal the scalar reference for its
// word, and, without the prefix reading, its first minimum the exhaustive
// argmin.
void ExpectBlockBitIdentical(const std::vector<Sequence>& words,
                             const std::vector<Sequence>& candidates,
                             Metric metric, bool prefix,
                             TableScratch* scratch) {
  auto distance = dist::MakeDistance(metric);
  CandidateTable table = CandidateTable::Build(candidates);
  std::vector<dist::SymbolView> views(words.begin(), words.end());
  std::vector<double> rows;
  table.MatchBlock(views.data(), views.size(), *distance, prefix, scratch,
                   &rows);
  ASSERT_EQ(rows.size(), words.size() * candidates.size());
  for (size_t w = 0; w < words.size(); ++w) {
    Span<const double> row(rows.data() + w * candidates.size(),
                           candidates.size());
    std::vector<double> want = Reference(words[w], candidates, metric, prefix);
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(row[i], want[i])
          << dist::MetricName(metric) << " word " << w << " of "
          << words.size() << " (length " << words[w].size()
          << "), candidate " << i << " (length " << candidates[i].size()
          << "), prefix " << prefix;
    }
    if (!prefix) {
      EXPECT_EQ(dist::FirstMinimum(row),
                core::ClosestCandidate(words[w], candidates, *distance))
          << dist::MetricName(metric) << " word " << w;
    }
  }
}

// A P_c broadcast as Algorithm 2 builds it at depth 11: each level keeps
// the top 18 frontier nodes (c * k on Symbols) and expands each by every
// symbol but its last, so 18 parents x 5 children share their prefixes.
std::vector<Sequence> PcFrontier() {
  auto trie = trie::CandidateTrie::Create(6);
  EXPECT_TRUE(trie.ok());
  Rng rng(0xF120);
  trie->ExpandRoot();
  while (trie->depth() < 11) {
    for (int node : trie->Frontier()) {
      EXPECT_TRUE(trie->SetFrequency(node, rng.Uniform(0.0, 1.0)).ok());
    }
    trie->PruneToTopK(18);
    trie->ExpandAll();
  }
  return trie->FrontierCandidates();
}

// A block of `count` words over symbols 0..5 whose lengths cycle through
// the empty word, words shorter than every candidate of PcFrontier and
// words longer than every candidate of both lists.
std::vector<Sequence> MixedWords(size_t count, Rng* rng) {
  constexpr size_t kLengths[] = {0, 3, 11, 1, 20, 12, 7, 30, 2};
  std::vector<Sequence> words(count);
  for (size_t w = 0; w < count; ++w) {
    size_t length = kLengths[(w + count) % std::size(kLengths)];
    for (size_t j = 0; j < length; ++j) {
      words[w].push_back(static_cast<Symbol>(rng->Index(6)));
    }
  }
  return words;
}

TEST(MatchBlockTest, BlocksOfEveryWidthMatchTheReference) {
  // A real P_c frontier, and a list with duplicates, a candidate that is
  // a prefix of others, an empty candidate and mixed lengths — against
  // blocks of 1 to two lane widths plus one, so full, partial and
  // multi-block calls all run.
  const std::vector<Sequence> frontier = PcFrontier();
  ASSERT_EQ(frontier.size(), 90u);
  const std::vector<Sequence> mixed = {
      {1, 2, 3}, {1, 2},       {},        {1, 2, 3}, {4, 0, 4, 0, 4},
      {1},       {1, 2, 3, 4, 5, 0, 1}, {2, 2},  {5, 4, 3, 2, 1, 0, 1, 2, 3},
      {},        {1, 2},
  };
  Rng rng(0xB10C);
  TableScratch scratch;  // reused across every call, as a worker's is
  for (const std::vector<Sequence>* candidates : {&frontier, &mixed}) {
    for (size_t count = 1; count <= kLanesPerSweep + 1; ++count) {
      std::vector<Sequence> words = MixedWords(count, &rng);
      for (Metric metric : VectorizedMetrics()) {
        for (bool prefix : {false, true}) {
          ExpectBlockBitIdentical(words, *candidates, metric, prefix,
                                  &scratch);
        }
      }
    }
  }
}

TEST(MatchBlockTest, PairsOnBothSidesOfTheInt16GuardShareABlock) {
  // Words of 0..128 symbols against candidates of 1..129 in one block:
  // pairs with n + m <= 128 read the lanes, and each pair at 129 or past
  // takes the scalar kernel alone while the block's other pairs stay in
  // the lanes. All-255 against all-0 puts DTW cells at the int16 limit.
  std::vector<Sequence> candidates = {
      Sequence(64, 255), Sequence(65, 0),   Sequence(64, 0),
      Sequence(127, 0),  Sequence(1, 255),  Sequence(128, 255),
      Sequence(129, 0),  Sequence(63, 255),
  };
  std::vector<Sequence> words;
  for (size_t n : {0, 1, 63, 64, 65, 127, 128}) {
    words.push_back(Sequence(n, 255));
    words.push_back(Sequence(n, 0));
  }
  TableScratch scratch;
  for (Metric metric : VectorizedMetrics()) {
    for (bool prefix : {false, true}) {
      ExpectBlockBitIdentical(words, candidates, metric, prefix, &scratch);
    }
  }
}

TEST(MatchBlockTest, OneWordBlocksAreMatchInto) {
  // MatchInto is MatchBlock over one word; MatchBlock with any count
  // gives each word the row MatchInto gives it alone.
  const std::vector<Sequence> frontier = PcFrontier();
  CandidateTable table = CandidateTable::Build(frontier);
  auto dtw = dist::MakeDistance(Metric::kDtw);
  Rng rng(0x0E);
  std::vector<Sequence> words = MixedWords(kLanesPerSweep + 1, &rng);
  std::vector<dist::SymbolView> views(words.begin(), words.end());
  TableScratch scratch;
  std::vector<double> rows, row;
  table.MatchBlock(views.data(), views.size(), *dtw, true, &scratch, &rows);
  for (size_t w = 0; w < words.size(); ++w) {
    table.MatchInto(words[w], *dtw, true, &scratch, &row);
    ASSERT_EQ(row.size(), frontier.size());
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(rows[w * frontier.size() + i], row[i]);
    }
  }
}

// The TableScratch bound of candidate_table.h.
size_t ColumnBound(size_t deepest, size_t longest) {
  return (std::min<size_t>(deepest, 128) + 1) *
         (std::min<size_t>(longest, 128) + 1) * simd::kI16Lanes;
}

TEST(MatchBlockTest, HundredThousandCandidatesKeepTheScratchBounded) {
  // 100 000 random candidates of 1..15 symbols: the column stack is sized
  // by the trie's depth and the block's words, never by the candidates.
  Rng rng(0x100000);
  std::vector<Sequence> candidates(100000);
  for (Sequence& cand : candidates) {
    for (size_t j = 1 + rng.Index(15); j > 0; --j) {
      cand.push_back(static_cast<Symbol>(rng.Index(6)));
    }
  }
  std::vector<Sequence> words = MixedWords(kLanesPerSweep + 1, &rng);
  std::vector<dist::SymbolView> views(words.begin(), words.end());
  CandidateTable table = CandidateTable::Build(candidates);
  for (Metric metric : VectorizedMetrics()) {
    auto distance = dist::MakeDistance(metric);
    for (bool prefix : {false, true}) {
      TableScratch scratch;
      std::vector<double> rows;
      table.MatchBlock(views.data(), views.size(), *distance, prefix,
                       &scratch, &rows);
      EXPECT_LE(scratch.columns.capacity(), ColumnBound(15, 30));
      EXPECT_LE(scratch.words.capacity(), 128 * simd::kI16Lanes);
      // Every 97th candidate of every word, against the reference.
      for (size_t w = 0; w < words.size(); ++w) {
        for (size_t i = 0; i < candidates.size(); i += 97) {
          dist::SymbolView lhs =
              prefix && words[w].size() > candidates[i].size()
                  ? views[w].Sub(0, candidates[i].size())
                  : views[w];
          ASSERT_EQ(rows[w * candidates.size() + i],
                    distance->Distance(lhs, candidates[i], nullptr))
              << dist::MetricName(metric) << " word " << w << " candidate "
              << i;
        }
      }
    }
  }
}

TEST(MatchBlockTest, OneLongCandidateKeepsTheScratchBounded) {
  // A single 5 000-symbol candidate never fits the lanes: every pair
  // takes the scalar kernel, and the lane scratch stays at the root.
  Rng rng(0x5000);
  Sequence long_candidate;
  for (size_t j = 0; j < 5000; ++j) {
    long_candidate.push_back(static_cast<Symbol>(rng.Index(256)));
  }
  std::vector<Sequence> words = MixedWords(kLanesPerSweep + 1, &rng);
  for (Metric metric : VectorizedMetrics()) {
    for (bool prefix : {false, true}) {
      TableScratch scratch;
      ExpectBlockBitIdentical(words, {long_candidate}, metric, prefix,
                              &scratch);
      EXPECT_LE(scratch.columns.capacity(), ColumnBound(5000, 30));
      EXPECT_LE(scratch.words.capacity(), 128 * simd::kI16Lanes);
      EXPECT_LE(scratch.dtw.prev.capacity(), 5001u);
    }
  }
}

TEST(MatchBlockTest, MatchEachVisitsEveryWordInOrderAndStopsAtAnError) {
  const std::vector<Sequence> candidates = {{0, 1}, {2}, {1, 1, 0}};
  CandidateTable table = CandidateTable::Build(candidates);
  auto sed = dist::MakeDistance(Metric::kSed);
  Rng rng(0xEAC);
  std::vector<Sequence> words = MixedWords(2 * kLanesPerSweep + 3, &rng);
  TableScratch scratch;
  std::vector<double> rows;
  size_t next = 0;
  Status status = table.MatchEach(
      words.size(), [&](size_t k) { return dist::SymbolView(words[k]); },
      *sed, /*prefix_compare=*/false, &scratch, &rows,
      [&](size_t k, Span<const double> row) {
        EXPECT_EQ(k, next++);
        std::vector<double> want =
            Reference(words[k], candidates, Metric::kSed, false);
        EXPECT_EQ(std::vector<double>(row.begin(), row.end()), want);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(next, words.size());

  next = 0;
  status = table.MatchEach(
      words.size(), [&](size_t k) { return dist::SymbolView(words[k]); },
      *sed, /*prefix_compare=*/false, &scratch, &rows,
      [&](size_t k, Span<const double>) {
        ++next;
        return k == simd::kI16Lanes ? Status::Internal("stop") : Status::Ok();
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(next, simd::kI16Lanes + 1);
}

}  // namespace
}  // namespace privshape
