/// RoundContext hot path vs the broadcast bytes: for every report kind, a
/// context shared across users must emit byte-identical reports to one
/// rebuilt from the encoded request for each answer (same seed, same
/// word), malformed broadcasts must fail construction, and the batched
/// ReportBatch codec must round-trip through the aggregation side.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"

namespace privshape {
namespace {

using proto::AnswerScratch;
using proto::CandidateRequest;
using proto::ClientSession;
using proto::Report;
using proto::ReportBatch;
using proto::ReportKind;
using proto::RoundContext;

Sequence WordFor(uint64_t user) {
  Rng rng(DeriveSeed(99, user));
  Sequence word;
  size_t len = 1 + rng.Index(7);
  for (size_t i = 0; i < len; ++i) {
    word.push_back(static_cast<Symbol>(rng.Index(4)));
  }
  return word;
}

ClientSession SessionFor(uint64_t user) {
  return ClientSession(WordFor(user), DeriveSeed(7, user));
}

CandidateRequest SampleRequest(double epsilon) {
  CandidateRequest request;
  request.level = 2;
  request.epsilon = epsilon;
  request.candidates = {{0, 1, 2}, {2, 1, 0}, {1, 1}, {3, 0, 2, 1}};
  return request;
}

/// The context-path report for one user (scratch shared across calls to
/// prove reuse does not leak state between users).
std::string ContextAnswer(const RoundContext& ctx, uint64_t user,
                          AnswerScratch* scratch) {
  ClientSession session = SessionFor(user);
  ReportBatch batch;
  Status st = session.AnswerTo(ctx, scratch, &batch);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(batch.size(), 1u);
  return std::string(batch.view(0));
}

/// A fresh session's report against a context rebuilt from the broadcast
/// bytes for this one answer — the string path a wire client that only
/// heard this round takes.
std::string WireAnswer(ReportKind kind, const std::string& request,
                       uint64_t user, dist::Metric metric, int label = -1) {
  auto ctx = RoundContext::FromRequest(kind, request, metric);
  EXPECT_TRUE(ctx.ok()) << ctx.status();
  if (!ctx.ok()) return "";
  ClientSession session(WordFor(user), DeriveSeed(7, user), label);
  ReportBatch batch;
  Status st = session.AnswerTo(*ctx, nullptr, &batch);
  EXPECT_TRUE(st.ok()) << st;
  return batch.empty() ? "" : std::string(batch.view(0));
}

TEST(RoundContextTest, LengthAnswersByteIdenticalToStringPath) {
  auto ctx = RoundContext::Length(1, 10, 4.0);
  ASSERT_TRUE(ctx.ok());
  std::string request = proto::EncodeLengthRequest({1, 10, 4.0});
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 200; ++user) {
    EXPECT_EQ(ContextAnswer(*ctx, user, &scratch),
              WireAnswer(ReportKind::kLength, request, user,
                         dist::Metric::kSed))
        << "user " << user;
  }
}

TEST(RoundContextTest, OneValueLengthDomainIsDeterministicZero) {
  auto ctx = RoundContext::Length(3, 3, 4.0);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->grr(), nullptr);
  std::string request = proto::EncodeLengthRequest({3, 3, 4.0});
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 20; ++user) {
    std::string got =
        ContextAnswer(*ctx, user, &scratch);
    EXPECT_EQ(got, WireAnswer(ReportKind::kLength, request, user,
                              dist::Metric::kSed));
    auto report = proto::DecodeReport(got);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->value, 0u);
  }
}

TEST(RoundContextTest, SubShapeAnswersByteIdenticalToStringPath) {
  auto ctx = RoundContext::SubShape(4, 6, 4.0, false);
  ASSERT_TRUE(ctx.ok());
  std::string request = proto::EncodeSubShapeRequest({4, 6, 4.0, false});
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 200; ++user) {
    EXPECT_EQ(ContextAnswer(*ctx, user, &scratch),
              WireAnswer(ReportKind::kSubShape, request, user,
                         dist::Metric::kSed))
        << "user " << user;
  }
}

TEST(RoundContextTest, SelectionAnswersByteIdenticalToStringPath) {
  CandidateRequest request = SampleRequest(6.0);
  std::string encoded = proto::EncodeCandidateRequest(request);
  for (dist::Metric metric :
       {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
        dist::Metric::kHausdorff}) {
    auto ctx = RoundContext::Selection(encoded, metric);
    ASSERT_TRUE(ctx.ok());
    AnswerScratch scratch;
    for (uint64_t user = 0; user < 150; ++user) {
      EXPECT_EQ(ContextAnswer(*ctx, user, &scratch),
                WireAnswer(ReportKind::kSelection, encoded, user, metric))
          << dist::MetricName(metric) << " user " << user;
    }
  }
}

TEST(RoundContextTest, RefinementAnswersByteIdenticalToStringPath) {
  CandidateRequest request = SampleRequest(8.0);
  std::string encoded = proto::EncodeCandidateRequest(request);
  for (dist::Metric metric :
       {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
        dist::Metric::kHausdorff}) {
    auto ctx = RoundContext::Refinement(encoded, metric);
    ASSERT_TRUE(ctx.ok());
    AnswerScratch scratch;
    for (uint64_t user = 0; user < 150; ++user) {
      EXPECT_EQ(ContextAnswer(*ctx, user, &scratch),
                WireAnswer(ReportKind::kRefinement, encoded, user, metric))
          << dist::MetricName(metric) << " user " << user;
    }
  }
}

TEST(RoundContextTest, ClassRefinementAnswersByteIdenticalToStringPath) {
  proto::ClassRefineRequest request;
  request.epsilon = 5.0;
  request.num_classes = 4;
  request.candidates = SampleRequest(5.0).candidates;
  std::string encoded = proto::EncodeClassRefineRequest(request);
  for (dist::Metric metric : {dist::Metric::kDtw, dist::Metric::kSed}) {
    auto ctx = RoundContext::ClassRefinement(encoded, metric);
    ASSERT_TRUE(ctx.ok()) << ctx.status();
    EXPECT_EQ(ctx->kind(), ReportKind::kClassRefine);
    EXPECT_EQ(ctx->domain(), request.candidates.size() * 4);
    AnswerScratch scratch;
    for (uint64_t user = 0; user < 150; ++user) {
      int label = static_cast<int>(user % 4);
      ClientSession ctx_session(WordFor(user), DeriveSeed(7, user), label);
      ReportBatch batch;
      ASSERT_TRUE(ctx_session.AnswerTo(*ctx, &scratch, &batch).ok());
      EXPECT_EQ(std::string(batch.view(0)),
                WireAnswer(ReportKind::kClassRefine, encoded, user, metric,
                           label))
          << dist::MetricName(metric) << " user " << user;
    }
  }
}

TEST(RoundContextTest, ClassRefinementConstructionValidates) {
  proto::ClassRefineRequest good;
  good.epsilon = 4.0;
  good.num_classes = 2;
  good.candidates = {{0, 1}};
  ASSERT_TRUE(
      RoundContext::ClassRefinement(good, dist::Metric::kSed).ok());
  proto::ClassRefineRequest no_candidates = good;
  no_candidates.candidates.clear();
  EXPECT_FALSE(
      RoundContext::ClassRefinement(no_candidates, dist::Metric::kSed).ok());
  proto::ClassRefineRequest no_classes = good;
  no_classes.num_classes = 0;
  EXPECT_FALSE(
      RoundContext::ClassRefinement(no_classes, dist::Metric::kSed).ok());
  proto::ClassRefineRequest bad_eps = good;
  bad_eps.epsilon = -1.0;
  EXPECT_FALSE(
      RoundContext::ClassRefinement(bad_eps, dist::Metric::kSed).ok());
  EXPECT_FALSE(
      RoundContext::ClassRefinement("garbage", dist::Metric::kSed).ok());
  // A tiny corrupt broadcast must not be able to demand a multi-GB OUE
  // bit vector from every client: the cell grid is capped.
  proto::ClassRefineRequest huge = good;
  huge.num_classes = proto::kMaxClassRefineCells + 1;
  EXPECT_FALSE(
      RoundContext::ClassRefinement(huge, dist::Metric::kSed).ok());
  proto::ClassRefineRequest wide = good;
  wide.candidates = {{0, 1}, {1, 0}};           // 2 candidates x ...
  wide.num_classes = (uint64_t{1} << 19) + 1;   // ... classes -> over cap
  EXPECT_FALSE(
      RoundContext::ClassRefinement(wide, dist::Metric::kSed).ok());
}

TEST(RoundContextTest, ConstructionValidatesLikeTheWireApi) {
  // Malformed or out-of-range broadcasts fail whichever factory builds
  // the context, the byte-decoding FromRequest included.
  EXPECT_FALSE(RoundContext::Length(0, 10, 4.0).ok());
  EXPECT_FALSE(RoundContext::Length(5, 4, 4.0).ok());
  EXPECT_FALSE(RoundContext::Length(1, 10, -1.0).ok());  // bad epsilon
  EXPECT_FALSE(RoundContext::SubShape(3, 1, 4.0, false).ok());
  CandidateRequest empty;
  empty.epsilon = 1.0;
  EXPECT_FALSE(
      RoundContext::Selection(std::move(empty), dist::Metric::kSed).ok());
  EXPECT_FALSE(
      RoundContext::Selection("garbage", dist::Metric::kSed).ok());
  EXPECT_FALSE(
      RoundContext::Refinement("garbage", dist::Metric::kSed).ok());
  EXPECT_FALSE(RoundContext::FromRequest(ReportKind::kLength, "garbage",
                                         dist::Metric::kSed)
                   .ok());
  EXPECT_FALSE(RoundContext::FromRequest(
                   ReportKind::kSubShape,
                   proto::EncodeSubShapeRequest({3, 1, 4.0, false}),
                   dist::Metric::kSed)
                   .ok());
  CandidateRequest bad_eps = SampleRequest(-2.0);
  EXPECT_FALSE(
      RoundContext::Selection(std::move(bad_eps), dist::Metric::kSed).ok());
  // A NaN or infinite epsilon in the broadcast bytes: NaN passes every
  // `epsilon <= 0` test, and an infinite one makes GRR's p NaN.
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(RoundContext::FromRequest(
                     ReportKind::kLength,
                     proto::EncodeLengthRequest({1, 10, eps}),
                     dist::Metric::kSed)
                     .ok())
        << eps;
  }
}

TEST(RoundContextTest, ReportReuseClearsStaleBits) {
  // A scratch Report that carried OUE bits must not leak them into the
  // next answer written over it.
  auto ctx = RoundContext::Length(1, 10, 4.0);
  ASSERT_TRUE(ctx.ok());
  AnswerScratch scratch;
  scratch.report.bits = {1, 0, 1};
  ClientSession session = SessionFor(3);
  ReportBatch batch;
  ASSERT_TRUE(session.AnswerTo(*ctx, &scratch, &batch).ok());
  auto decoded = proto::DecodeReport(batch.view(0));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->bits.empty());
}

// --- ReportBatch ---------------------------------------------------------

TEST(ReportBatchTest, AppendViewRoundTrip) {
  ReportBatch batch;
  std::vector<Report> reports;
  for (uint64_t i = 0; i < 10; ++i) {
    Report report;
    report.kind = ReportKind::kSelection;
    report.level = i;
    report.value = i * 3 + 1;
    if (i % 3 == 0) report.bits = {static_cast<uint8_t>(i), 1};
    reports.push_back(report);
    batch.Append(report);
  }
  ASSERT_EQ(batch.size(), reports.size());
  size_t total = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.view(i), proto::EncodeReport(reports[i])) << i;
    total += batch.view(i).size();
    auto decoded = proto::DecodeReport(batch.view(i));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, reports[i]);
  }
  EXPECT_EQ(batch.bytes(), total);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.bytes(), 0u);
  // Reuse after Clear starts clean.
  batch.Append(reports[0]);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.view(0), proto::EncodeReport(reports[0]));
}

TEST(ReportBatchTest, EncodeReportToMatchesEncodeReport) {
  Report report;
  report.kind = ReportKind::kSubShape;
  report.level = 3;
  report.value = 17;
  report.bits = {1, 0, 1};
  std::string appended = "prefix";
  proto::EncodeReportTo(report, &appended);
  EXPECT_EQ(appended, "prefix" + proto::EncodeReport(report));
}

}  // namespace
}  // namespace privshape
