/// Fuzz-style hardening tests for the wire layer: every systematically
/// corrupted report (truncations, bit flips, wrong kinds, huge fields,
/// trailing garbage) must either decode to an equivalent valid report or
/// be counted in the server tally's rejected() — and must never corrupt
/// the aggregate estimates of the well-formed reports around it.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "collector/sharded_aggregator.h"
#include "protocol/codec.h"
#include "protocol/messages.h"

namespace privshape {
namespace {

using collector::ShardedAggregator;
using collector::StageSpec;
using proto::Decoder;
using proto::DecodeReport;
using proto::Encoder;
using proto::EncodeReport;
using proto::Report;
using proto::ReportBatch;
using proto::ReportKind;

Report ValidReport(uint64_t value = 3) {
  Report report;
  report.kind = ReportKind::kLength;
  report.value = value;
  return report;
}

TEST(ProtocolFuzzTest, EveryTruncationIsRejectedByDecode) {
  std::string wire = EncodeReport(ValidReport());
  for (size_t len = 0; len < wire.size(); ++len) {
    auto decoded = DecodeReport(wire.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << len << " decoded";
  }
}

TEST(ProtocolFuzzTest, BitFlipsNeverSmuggleInvalidReportsThroughAggregation) {
  // A single flipped bit may legitimately still decode (e.g. it only
  // moved the value within the domain). The invariant is that the tally
  // agrees exactly with DecodeReport's verdict plus the round's kind,
  // level window and domain: everything else lands in rejected(), and
  // nothing crashes along the way.
  const size_t kDomain = 10;
  std::string wire = EncodeReport(ValidReport());
  ShardedAggregator agg(StageSpec{ReportKind::kLength, kDomain, 2.0}, 1);
  ReportBatch flips;
  size_t expect_accepted = 0;
  size_t expect_rejected = 0;
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = wire;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      auto decoded = DecodeReport(flipped);
      if (decoded.ok() && decoded->kind == ReportKind::kLength &&
          decoded->level == 0 && decoded->value < kDomain) {
        ++expect_accepted;
      } else {
        ++expect_rejected;
      }
      flips.AppendEncoded(flipped);
    }
  }
  agg.ConsumeBatch(0, flips);
  EXPECT_EQ(agg.accepted(), expect_accepted);
  EXPECT_EQ(agg.rejected(), expect_rejected);
  // Version and kind flips alone guarantee a healthy rejected pile.
  EXPECT_GT(expect_rejected, 8u);
}

TEST(ProtocolFuzzTest, AggregatorCountsEveryMalformedInputAsRejected) {
  const size_t kDomain = 10;
  ShardedAggregator agg(StageSpec{ReportKind::kLength, kDomain, 2.0}, 1);

  std::vector<std::string> malformed;
  std::string wire = EncodeReport(ValidReport());
  // Truncations.
  for (size_t len = 0; len < wire.size(); ++len) {
    malformed.push_back(wire.substr(0, len));
  }
  // Trailing garbage.
  malformed.push_back(wire + "x");
  malformed.push_back(wire + wire);
  // Wrong kinds.
  for (auto kind : {ReportKind::kSubShape, ReportKind::kSelection,
                    ReportKind::kRefinement, ReportKind::kClassRefine}) {
    Report wrong;
    wrong.kind = kind;
    wrong.value = 1;
    malformed.push_back(EncodeReport(wrong));
  }
  // Unknown kinds (including the first id past kClassRefine — a
  // rolled-forward fleet must not smuggle future kinds past an old
  // aggregator) and an unknown version.
  for (uint64_t kind : {uint64_t{6}, uint64_t{77}}) {
    Encoder enc;
    enc.PutVarint(proto::kWireVersion);
    enc.PutVarint(kind);
    enc.PutVarint(0);
    enc.PutVarint(0);
    enc.PutBytes({});
    malformed.push_back(enc.Release());
  }
  {
    Encoder enc;
    enc.PutVarint(proto::kWireVersion + 9);
    enc.PutVarint(1);
    enc.PutVarint(0);
    enc.PutVarint(0);
    enc.PutBytes({});
    malformed.push_back(enc.Release());
  }
  // Out-of-domain values, including overflow-bait ones.
  for (uint64_t value :
       {uint64_t{kDomain}, uint64_t{kDomain + 1}, uint64_t{1} << 40,
        ~uint64_t{0}}) {
    malformed.push_back(EncodeReport(ValidReport(value)));
  }
  // Pure noise.
  malformed.push_back(std::string(64, '\xff'));
  malformed.push_back(std::string(64, '\0'));
  malformed.push_back("not-a-report");

  ReportBatch batch;
  for (const std::string& bad : malformed) batch.AppendEncoded(bad);
  agg.ConsumeBatch(0, batch);
  EXPECT_EQ(agg.accepted(), 0u);
  EXPECT_EQ(agg.rejected(), malformed.size());
}

TEST(ProtocolFuzzTest, MalformedReportsNeverCorruptEstimates) {
  const size_t kDomain = 6;
  const double kEps = 3.0;

  // Clean aggregate: 40 users reporting value 2, 20 reporting value 4.
  ReportBatch valid;
  for (int i = 0; i < 40; ++i) valid.Append(ValidReport(2));
  for (int i = 0; i < 20; ++i) valid.Append(ValidReport(4));
  ShardedAggregator clean(StageSpec{ReportKind::kLength, kDomain, kEps}, 1);
  clean.ConsumeBatch(0, valid);

  // Same valid stream, interleaved with hostile inputs.
  ReportBatch hostile;
  std::string wire = EncodeReport(ValidReport(2));
  for (int i = 0; i < 40; ++i) {
    hostile.Append(ValidReport(2));
    hostile.AppendEncoded(wire.substr(0, wire.size() / 2));
    hostile.Append(ValidReport(uint64_t{1} << 50));
  }
  for (int i = 0; i < 20; ++i) {
    hostile.Append(ValidReport(4));
    Report wrong;
    wrong.kind = ReportKind::kRefinement;
    wrong.value = 2;
    hostile.Append(wrong);
  }
  ShardedAggregator attacked(StageSpec{ReportKind::kLength, kDomain, kEps},
                             1);
  attacked.ConsumeBatch(0, hostile);

  EXPECT_EQ(attacked.accepted(), clean.accepted());
  EXPECT_EQ(attacked.rejected(), 100u);
  EXPECT_EQ(attacked.Tally(0), clean.Tally(0));
  // Byte-identical debiased estimates: rejects must not feed the `n` term.
  EXPECT_EQ(attacked.DebiasedCounts(0), clean.DebiasedCounts(0));
  for (double v : attacked.DebiasedCounts(0)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(ProtocolFuzzTest, DecoderNeverReadsPastTruncatedBuffers) {
  // Exercise the raw codec getters over adversarial buffers; Result-based
  // errors (never exceptions, never overreads under ASan).
  for (const std::string& buffer :
       {std::string(""), std::string(1, '\x80'), std::string(9, '\xff'),
        std::string(3, 'x'), std::string(7, '\0')}) {
    Decoder varints(buffer);
    while (varints.GetVarint().ok()) {
    }
    EXPECT_FALSE(varints.GetVarint().ok());
    Decoder doubles(buffer);
    while (doubles.GetDouble().ok()) {
    }
    EXPECT_FALSE(doubles.GetDouble().ok());
    Decoder bytes(buffer);
    while (bytes.GetBytes().ok()) {
    }
    EXPECT_FALSE(bytes.GetBytes().ok());
  }
}

TEST(ProtocolFuzzTest, CandidateRequestCorruptionRejected) {
  proto::CandidateRequest request;
  request.level = 2;
  request.epsilon = 4.0;
  request.candidates = {{0, 1, 2}, {2, 1}};
  std::string wire = proto::EncodeCandidateRequest(request);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(proto::DecodeCandidateRequest(wire.substr(0, len)).ok())
        << "truncation at " << len;
  }
  EXPECT_FALSE(proto::DecodeCandidateRequest(wire + "zz").ok());
}

TEST(ProtocolFuzzTest, ClassRefineReportBitLengthEnforced) {
  // A P_e report is a whole OUE bit vector; the tally must reject
  // anything but exactly `domain` bits (shorter, longer, empty, or with a
  // stray value or level field), and still count clean reports around
  // the junk.
  const size_t kCells = 6;
  ShardedAggregator agg(StageSpec{ReportKind::kClassRefine, kCells, 2.0}, 1);
  ReportBatch batch;
  Report good;
  good.kind = ReportKind::kClassRefine;
  good.bits = {1, 0, 0, 1, 0, 1};
  batch.Append(good);

  for (size_t bits : {size_t{0}, size_t{1}, kCells - 1, kCells + 1,
                      size_t{64}}) {
    Report bad;
    bad.kind = ReportKind::kClassRefine;
    bad.bits.assign(bits, 1);
    batch.Append(bad);
  }
  Report stray_value = good;
  stray_value.value = 3;
  batch.Append(stray_value);
  Report stray_level = good;
  stray_level.level = 7;
  batch.Append(stray_level);
  agg.ConsumeBatch(0, batch);

  EXPECT_EQ(agg.accepted(), 1u);
  EXPECT_EQ(agg.rejected(), 7u);
  EXPECT_EQ(agg.Tally(0), (std::vector<size_t>{1, 0, 0, 1, 0, 1}));
}

TEST(ProtocolFuzzTest, ClassRefineReportSurvivesRoundTripAndTruncation) {
  Report report;
  report.kind = ReportKind::kClassRefine;
  report.bits = {1, 0, 1, 1, 0, 0, 1, 0};
  std::string wire = EncodeReport(report);
  auto decoded = DecodeReport(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, report);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeReport(wire.substr(0, len)).ok())
        << "truncation at " << len;
  }
  EXPECT_FALSE(DecodeReport(wire + "x").ok());
}

/// Decodes `wire` with DecodeReport and into `*reused`, which holds the
/// 108-bit `wide` report beforehand, and expects the same verdict: the
/// same status and, on success, the same fields (no stale bit survives).
void ExpectDecodeIntoAgrees(const std::string& wire, const Report& wide,
                            Report* reused, const std::string& where) {
  *reused = wide;
  auto fresh = DecodeReport(wire);
  Status into = proto::DecodeReportInto(wire, reused);
  ASSERT_EQ(into, fresh.status()) << where;
  if (into.ok()) {
    EXPECT_EQ(*reused, *fresh) << where;
  }
}

TEST(ProtocolFuzzTest, DecodeIntoReusedReportAgreesWithDecodeReport) {
  // The drainers decode every report of a lane into one Report. Every
  // truncation and every single-bit flip of a 108-cell P_e report
  // (18 candidates x 6 classes) and of a P_c report, decoded into a
  // Report that last held 108 bits, must read exactly as DecodeReport
  // reads it.
  Report wide;
  wide.kind = ReportKind::kClassRefine;
  for (size_t i = 0; i < 108; ++i) wide.bits.push_back(i % 3 == 0 ? 1 : 0);
  Report selection;
  selection.kind = ReportKind::kSelection;
  selection.level = 4;
  selection.value = 37;
  Report reused;
  for (const Report& report : {wide, selection}) {
    std::string wire = EncodeReport(report);
    ExpectDecodeIntoAgrees(wire, wide, &reused, "intact");
    EXPECT_EQ(reused, report);
    for (size_t len = 0; len < wire.size(); ++len) {
      ExpectDecodeIntoAgrees(wire.substr(0, len), wide, &reused,
                             "truncation at " + std::to_string(len));
    }
    for (size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = wire;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        ExpectDecodeIntoAgrees(flipped, wide, &reused,
                               "flip of byte " + std::to_string(byte) +
                                   " bit " + std::to_string(bit));
      }
    }
  }
}

TEST(ProtocolFuzzTest, LengthRequestCorruptionRejected) {
  proto::LengthRequest request;
  request.ell_low = 1;
  request.ell_high = 10;
  request.epsilon = 4.0;
  std::string wire = proto::EncodeLengthRequest(request);
  auto decoded = proto::DecodeLengthRequest(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, request);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(proto::DecodeLengthRequest(wire.substr(0, len)).ok())
        << "truncation at " << len;
  }
  EXPECT_FALSE(proto::DecodeLengthRequest(wire + "z").ok());
  // A range that cannot fit an int is corrupt, not a 2^40-bucket domain.
  Encoder enc;
  enc.PutVarint(proto::kWireVersion);
  enc.PutVarint(uint64_t{1} << 40);
  enc.PutVarint(uint64_t{1} << 41);
  enc.PutDouble(4.0);
  EXPECT_FALSE(proto::DecodeLengthRequest(enc.buffer()).ok());
}

TEST(ProtocolFuzzTest, SubShapeRequestCorruptionRejected) {
  proto::SubShapeRequest request;
  request.alphabet = 4;
  request.ell_s = 6;
  request.epsilon = 2.0;
  request.allow_repeats = true;
  std::string wire = proto::EncodeSubShapeRequest(request);
  auto decoded = proto::DecodeSubShapeRequest(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, request);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(proto::DecodeSubShapeRequest(wire.substr(0, len)).ok())
        << "truncation at " << len;
  }
  EXPECT_FALSE(proto::DecodeSubShapeRequest(wire + "z").ok());
  // allow_repeats is a strict boolean on the wire.
  Encoder enc;
  enc.PutVarint(proto::kWireVersion);
  enc.PutVarint(4);
  enc.PutVarint(6);
  enc.PutDouble(2.0);
  enc.PutVarint(2);
  EXPECT_FALSE(proto::DecodeSubShapeRequest(enc.buffer()).ok());
}

TEST(ProtocolFuzzTest, ClassRefineRequestCorruptionRejected) {
  proto::ClassRefineRequest request;
  request.epsilon = 4.0;
  request.num_classes = 3;
  request.candidates = {{0, 1, 2}, {2, 1}};
  std::string wire = proto::EncodeClassRefineRequest(request);
  auto decoded = proto::DecodeClassRefineRequest(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, request);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(proto::DecodeClassRefineRequest(wire.substr(0, len)).ok())
        << "truncation at " << len;
  }
  EXPECT_FALSE(proto::DecodeClassRefineRequest(wire + "zz").ok());
}

}  // namespace
}  // namespace privshape
