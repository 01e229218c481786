#include "protocol/round_context.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/subshape.h"
#include "ldp/unary_encoding.h"

namespace privshape::proto {

Result<RoundContext> RoundContext::FromRequest(ReportKind kind,
                                               std::string_view encoded_request,
                                               dist::Metric metric) {
  switch (kind) {
    case ReportKind::kLength: {
      auto request = DecodeLengthRequest(encoded_request);
      if (!request.ok()) return request.status();
      return Length(*request);
    }
    case ReportKind::kSubShape: {
      auto request = DecodeSubShapeRequest(encoded_request);
      if (!request.ok()) return request.status();
      return SubShape(*request);
    }
    case ReportKind::kSelection:
      return Selection(encoded_request, metric);
    case ReportKind::kRefinement:
      return Refinement(encoded_request, metric);
    case ReportKind::kClassRefine:
      return ClassRefinement(encoded_request, metric);
  }
  return Status::InvalidArgument("unknown round kind");
}

Result<RoundContext> RoundContext::Length(int ell_low, int ell_high,
                                          double epsilon) {
  if (ell_low < 1 || ell_high < ell_low) {
    return Status::InvalidArgument("invalid length range");
  }
  RoundContext ctx;
  ctx.kind_ = ReportKind::kLength;
  ctx.epsilon_ = epsilon;
  ctx.ell_low_ = ell_low;
  ctx.ell_high_ = ell_high;
  size_t domain = static_cast<size_t>(ell_high - ell_low + 1);
  ctx.domain_ = domain;
  if (domain > 1) {
    auto grr = ldp::Grr::Create(domain, epsilon);
    if (!grr.ok()) return grr.status();
    ctx.grr_ = std::move(*grr);
  }
  return ctx;
}

Result<RoundContext> RoundContext::Length(const LengthRequest& request) {
  return Length(request.ell_low, request.ell_high, request.epsilon);
}

Result<RoundContext> RoundContext::SubShape(int alphabet, int ell_s,
                                            double epsilon,
                                            bool allow_repeats) {
  if (ell_s < 2) {
    return Status::FailedPrecondition("no sub-shapes for ell_s < 2");
  }
  RoundContext ctx;
  ctx.kind_ = ReportKind::kSubShape;
  ctx.epsilon_ = epsilon;
  ctx.alphabet_ = alphabet;
  ctx.ell_s_ = ell_s;
  ctx.allow_repeats_ = allow_repeats;
  size_t domain = core::SubShapeDomainSize(alphabet, allow_repeats);
  auto grr = ldp::Grr::Create(domain, epsilon);
  if (!grr.ok()) return grr.status();
  ctx.domain_ = domain;
  ctx.grr_ = std::move(*grr);
  return ctx;
}

Result<RoundContext> RoundContext::SubShape(const SubShapeRequest& request) {
  return SubShape(request.alphabet, request.ell_s, request.epsilon,
                  request.allow_repeats);
}

Result<RoundContext> RoundContext::Selection(CandidateRequest request,
                                             dist::Metric metric) {
  if (request.candidates.empty()) {
    return Status::InvalidArgument("empty candidate list");
  }
  auto em = ldp::ExponentialMechanism::Create(request.epsilon);
  if (!em.ok()) return em.status();
  RoundContext ctx;
  ctx.kind_ = ReportKind::kSelection;
  ctx.level_ = request.level;
  ctx.epsilon_ = request.epsilon;
  ctx.domain_ = request.candidates.size();
  ctx.em_ = std::move(*em);
  ctx.distance_ = dist::MakeDistance(metric);
  ctx.table_ = dist::CandidateTable::Build(std::move(request.candidates));
  return ctx;
}

Result<RoundContext> RoundContext::Selection(std::string_view encoded_request,
                                             dist::Metric metric) {
  auto decoded = DecodeCandidateRequest(encoded_request);
  if (!decoded.ok()) return decoded.status();
  return Selection(std::move(*decoded), metric);
}

Result<RoundContext> RoundContext::Refinement(CandidateRequest request,
                                              dist::Metric metric) {
  if (request.candidates.empty()) {
    return Status::InvalidArgument("empty candidate list");
  }
  size_t domain = std::max<size_t>(request.candidates.size(), 2);
  auto grr = ldp::Grr::Create(domain, request.epsilon);
  if (!grr.ok()) return grr.status();
  RoundContext ctx;
  ctx.kind_ = ReportKind::kRefinement;
  ctx.level_ = request.level;
  ctx.epsilon_ = request.epsilon;
  ctx.domain_ = domain;
  ctx.grr_ = std::move(*grr);
  ctx.distance_ = dist::MakeDistance(metric);
  ctx.table_ = dist::CandidateTable::Build(std::move(request.candidates));
  return ctx;
}

Result<RoundContext> RoundContext::Refinement(std::string_view encoded_request,
                                              dist::Metric metric) {
  auto decoded = DecodeCandidateRequest(encoded_request);
  if (!decoded.ok()) return decoded.status();
  return Refinement(std::move(*decoded), metric);
}

Result<RoundContext> RoundContext::ClassRefinement(ClassRefineRequest request,
                                                   dist::Metric metric) {
  if (request.candidates.empty()) {
    return Status::InvalidArgument("empty candidate list");
  }
  if (request.num_classes < 1 ||
      request.num_classes >
          static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument("num_classes must be a positive int");
  }
  // Every client allocates and ships one bit per cell, so an unbounded
  // wire-decoded candidates x classes product is a DoS vector (a tiny
  // corrupt broadcast could demand multi-GB reports). Real rounds are
  // c*k candidates x tens of classes — orders of magnitude under this.
  uint64_t wide_cells = static_cast<uint64_t>(request.candidates.size()) *
                        request.num_classes;
  if (wide_cells > kMaxClassRefineCells) {
    return Status::InvalidArgument(
        "candidates x num_classes exceeds the class-refinement cell cap");
  }
  size_t cells = static_cast<size_t>(wide_cells);
  // Validation and p/q come from the one OUE implementation, so the
  // context-path Bernoulli draws use bit-identical probabilities to the
  // in-process runner's ldp::UnaryEncoding oracle.
  auto oue = ldp::UnaryEncoding::Create(
      cells, request.epsilon, ldp::UnaryEncoding::Variant::kOptimized);
  if (!oue.ok()) return oue.status();
  RoundContext ctx;
  ctx.kind_ = ReportKind::kClassRefine;
  ctx.level_ = 0;
  ctx.epsilon_ = request.epsilon;
  ctx.domain_ = cells;
  ctx.num_classes_ = static_cast<int>(request.num_classes);
  ctx.oue_p_ = oue->p();
  ctx.oue_q_ = oue->q();
  ctx.oue_ = std::move(*oue);
  ctx.distance_ = dist::MakeDistance(metric);
  ctx.table_ = dist::CandidateTable::Build(std::move(request.candidates));
  return ctx;
}

Result<RoundContext> RoundContext::ClassRefinement(
    std::string_view encoded_request, dist::Metric metric) {
  auto decoded = DecodeClassRefineRequest(encoded_request);
  if (!decoded.ok()) return decoded.status();
  return ClassRefinement(std::move(*decoded), metric);
}

}  // namespace privshape::proto
