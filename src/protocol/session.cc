#include "protocol/session.h"

#include <algorithm>

#include "core/rounds.h"
#include "ldp/estimator_utils.h"
#include "ldp/unary_encoding.h"

namespace privshape::proto {

// Each Answer* runs its stage's user-side helper from core/rounds.h, the
// one the in-process runner calls too, so both paths draw identical
// randomness in identical order and produce the same tallies.

PS_REPORT_PATH
Status ClientSession::AnswerLength(const RoundContext& ctx,
                                   AnswerScratch* /*scratch*/, Report* out) {
  if (ctx.kind() != ReportKind::kLength) {
    return Status::InvalidArgument("context is not a length round");
  }
  out->kind = ReportKind::kLength;
  out->level = 0;
  out->bits.clear();
  if (ctx.grr() == nullptr) {
    // One-value domain: deterministic report, no randomness to spend.
    out->value = 0;
    return Status::Ok();
  }
  out->value = core::AnswerLengthValue(word_, ctx.ell_low(), ctx.ell_high(),
                                       *ctx.grr(), &rng_);
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerSubShape(const RoundContext& ctx,
                                     AnswerScratch* /*scratch*/,
                                     Report* out) {
  if (ctx.kind() != ReportKind::kSubShape) {
    return Status::InvalidArgument("context is not a sub-shape round");
  }
  auto [level, value] =
      core::AnswerSubShapeValue(word_, ctx.ell_s(), ctx.alphabet(),
                                ctx.allow_repeats(), *ctx.grr(), &rng_);
  out->kind = ReportKind::kSubShape;
  out->level = level;
  out->value = value;
  out->bits.clear();
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerSelection(const RoundContext& ctx,
                                      AnswerScratch* scratch, Report* out) {
  if (ctx.kind() != ReportKind::kSelection) {
    return Status::InvalidArgument("context is not a selection round");
  }
  AnswerScratch local;
  auto pick = core::AnswerSelectionValue(
      word_, ctx.table(), *ctx.distance(), *ctx.em(),
      scratch != nullptr ? scratch : &local, &rng_);
  if (!pick.ok()) return pick.status();
  out->kind = ReportKind::kSelection;
  out->level = ctx.level();
  out->value = *pick;
  out->bits.clear();
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerRefinement(const RoundContext& ctx,
                                       AnswerScratch* scratch, Report* out) {
  if (ctx.kind() != ReportKind::kRefinement) {
    return Status::InvalidArgument("context is not a refinement round");
  }
  out->kind = ReportKind::kRefinement;
  out->level = 0;
  out->value = core::AnswerRefinementValue(
      word_, ctx.table(), *ctx.distance(), *ctx.grr(),
      scratch != nullptr ? &scratch->table : nullptr, &rng_);
  out->bits.clear();
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerClassRefinement(const RoundContext& ctx,
                                            AnswerScratch* scratch,
                                            Report* out) {
  if (ctx.kind() != ReportKind::kClassRefine) {
    return Status::InvalidArgument(
        "context is not a class-refinement round");
  }
  AnswerScratch local;
  AnswerScratch* s = scratch != nullptr ? scratch : &local;
  // An unlabeled or mislabeled session fails here: a fabricated cell would
  // bias the per-class estimates instead of showing up as a client error.
  auto cell = core::ClassRefineCell(word_, label_, ctx.num_classes(),
                                    ctx.table(), *ctx.distance(), &s->table);
  if (!cell.ok()) return cell.status();
  out->kind = ReportKind::kClassRefine;
  out->level = 0;
  out->value = 0;
  // The one canonical OUE bit fill — same draws in the same order as
  // ldp::UnaryEncoding::PerturbValue (one raw engine word per cell,
  // threshold-compared in bulk), written into the reusable bits buffer.
  ctx.oue()->EncodeInto(*cell, &rng_, &s->words, &out->bits);
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::Answer(const RoundContext& ctx, AnswerScratch* scratch,
                             Report* out) {
  switch (ctx.kind()) {
    case ReportKind::kLength:
      return AnswerLength(ctx, scratch, out);
    case ReportKind::kSubShape:
      return AnswerSubShape(ctx, scratch, out);
    case ReportKind::kSelection:
      return AnswerSelection(ctx, scratch, out);
    case ReportKind::kRefinement:
      return AnswerRefinement(ctx, scratch, out);
    case ReportKind::kClassRefine:
      return AnswerClassRefinement(ctx, scratch, out);
  }
  return Status::InvalidArgument("unknown round kind");
}

PS_REPORT_PATH
Status ClientSession::AnswerTo(const RoundContext& ctx,
                               AnswerScratch* scratch, ReportBatch* out) {
  Report local;
  Report* report = scratch != nullptr ? &scratch->report : &local;
  PRIVSHAPE_RETURN_IF_ERROR(Answer(ctx, scratch, report));
  out->Append(*report);
  return Status::Ok();
}

namespace {

/// Engine outputs one Answer of `kind` over `domain` draws: the GRR pair
/// (P_a, P_d; none for a one-value P_a domain), the level index plus the
/// GRR pair (P_b), the EM draw (P_c), one word per OUE cell (P_e).
size_t AnswerOutputs(ReportKind kind, size_t domain) {
  switch (kind) {
    case ReportKind::kLength:
      return domain >= 2 ? 2 : 0;
    case ReportKind::kSubShape:
      return 3;
    case ReportKind::kSelection:
      return 1;
    case ReportKind::kRefinement:
      return 2;
    case ReportKind::kClassRefine:
      return domain;
  }
  return 0;
}

}  // namespace

void ClientSession::SeedFresh(ClientSession* const* sessions, size_t count,
                              ReportKind kind, size_t domain) {
  size_t outputs = AnswerOutputs(kind, domain);
  Rng* rngs[LazyMt64::kSeedLanes];
  for (size_t begin = 0; begin < count; begin += LazyMt64::kSeedLanes) {
    size_t n = std::min(LazyMt64::kSeedLanes, count - begin);
    for (size_t i = 0; i < n; ++i) rngs[i] = &sessions[begin + i]->rng_;
    Rng::SeedFresh(rngs, n, outputs);
  }
}

ReportAggregator::ReportAggregator(ReportKind kind, size_t domain,
                                   double epsilon)
    : kind_(kind), domain_(domain), epsilon_(epsilon), counts_(domain, 0) {
  if (kind_ == ReportKind::kClassRefine) {
    // p/q from the one OUE implementation so the debiased estimates are
    // byte-identical to ldp::UnaryEncoding::EstimateCounts over the same
    // bit tallies. A non-positive epsilon (impossible for any validated
    // round) leaves p == q == 0.
    auto oue = ldp::UnaryEncoding::Create(
        std::max<size_t>(domain, 1), epsilon,
        ldp::UnaryEncoding::Variant::kOptimized);
    if (oue.ok()) {
      oue_p_ = oue->p();
      oue_q_ = oue->q();
    }
  }
}

void ReportAggregator::Consume(std::string_view encoded) {
  auto report = DecodeReport(encoded);
  if (!report.ok()) {
    ++rejected_;
    return;
  }
  ConsumeReport(*report);
}

void ReportAggregator::ConsumeReport(const Report& report) {
  if (report.kind != kind_) {
    ++rejected_;
    return;
  }
  if (kind_ == ReportKind::kClassRefine) {
    // A class-refinement report is a whole OUE bit vector; anything but
    // exactly domain_ bits (or a stray value/level field) is malformed.
    if (report.value != 0 || report.level != 0 ||
        report.bits.size() != domain_) {
      ++rejected_;
      return;
    }
    for (size_t i = 0; i < domain_; ++i) {
      if (report.bits[i]) ++counts_[i];
    }
    ++accepted_;
    return;
  }
  if (report.value >= domain_) {
    ++rejected_;
    return;
  }
  counts_[report.value]++;
  ++accepted_;
}

Status ReportAggregator::Merge(const ReportAggregator& other) {
  if (other.kind_ != kind_ || other.domain_ != domain_ ||
      other.epsilon_ != epsilon_) {
    return Status::InvalidArgument("cannot merge mismatched aggregators");
  }
  for (size_t v = 0; v < domain_; ++v) counts_[v] += other.counts_[v];
  accepted_ += other.accepted_;
  rejected_ += other.rejected_;
  return Status::Ok();
}

std::vector<double> ReportAggregator::EstimatedCounts() const {
  if (kind_ == ReportKind::kSelection) {
    std::vector<double> out(domain_);
    for (size_t v = 0; v < domain_; ++v) {
      out[v] = static_cast<double>(counts_[v]);
    }
    return out;
  }
  if (kind_ == ReportKind::kClassRefine) {
    // Same expression, same evaluation order as
    // ldp::UnaryEncoding::EstimateCounts — identical integer tallies give
    // byte-identical per-cell estimates.
    std::vector<double> out(domain_);
    double n = static_cast<double>(accepted_);
    for (size_t v = 0; v < domain_; ++v) {
      out[v] =
          (static_cast<double>(counts_[v]) - n * oue_q_) / (oue_p_ - oue_q_);
    }
    return out;
  }
  // Shared debias path: identical raw counts give byte-identical
  // estimates to the in-process ldp::Grr oracle.
  return ldp::DebiasGrrCounts(counts_, accepted_, epsilon_);
}

}  // namespace privshape::proto
