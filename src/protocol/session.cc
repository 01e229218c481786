#include "protocol/session.h"

#include <algorithm>

#include "core/rounds.h"

namespace privshape::proto {

// Each stage step runs its stage's user-side helper from core/rounds.h, the
// one the in-process runner calls too, so both paths draw identical
// randomness in identical order and produce the same tallies.

PS_REPORT_PATH
Status ClientSession::AnswerLength(const RoundContext& ctx, Report* out) {
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
Status ClientSession::AnswerSubShape(const RoundContext& ctx, Report* out) {
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
Span<const double> ClientSession::DistanceRow(const RoundContext& ctx,
                                              bool prefix_compare,
                                              AnswerScratch* scratch) {
  const dist::CandidateTable& table = ctx.table();
  if (block_ == nullptr) {
    table.MatchInto(word_, *ctx.distance(), prefix_compare, &scratch->table,
                    &scratch->distances);
    return scratch->distances;
  }
  if (block_->matched_ != &ctx) {
    table.MatchBlock(block_->words_.data(), block_->words_.size(),
                     *ctx.distance(), prefix_compare, &scratch->table,
                     &block_->rows_);
    block_->matched_ = &ctx;
  }
  return Span<const double>(block_->rows_.data() + member_ * table.size(),
                            table.size());
}

PS_REPORT_PATH
Status ClientSession::AnswerSelection(const RoundContext& ctx,
                                      AnswerScratch* scratch, Report* out) {
  AnswerScratch local;
  AnswerScratch* s = scratch != nullptr ? scratch : &local;
  auto pick = core::AnswerSelectionValue(
      DistanceRow(ctx, /*prefix_compare=*/true, s), *ctx.em(), s, &rng_);
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
  AnswerScratch local;
  AnswerScratch* s = scratch != nullptr ? scratch : &local;
  out->kind = ReportKind::kRefinement;
  out->level = 0;
  out->value = core::AnswerRefinementValue(
      dist::FirstMinimum(DistanceRow(ctx, /*prefix_compare=*/false, s)),
      *ctx.grr(), &rng_);
  out->bits.clear();
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerClassRefinement(const RoundContext& ctx,
                                            AnswerScratch* scratch,
                                            Report* out) {
  AnswerScratch local;
  AnswerScratch* s = scratch != nullptr ? scratch : &local;
  // An unlabeled or mislabeled session fails here: a fabricated cell would
  // bias the per-class estimates instead of showing up as a client error.
  auto cell = core::ClassRefineCell(
      dist::FirstMinimum(DistanceRow(ctx, /*prefix_compare=*/false, s)),
      label_, ctx.num_classes());
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
      return AnswerLength(ctx, out);
    case ReportKind::kSubShape:
      return AnswerSubShape(ctx, out);
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

void ClientSession::MatchTogether(ClientSession* const* sessions,
                                  size_t count, BlockMatch* block) {
  block->words_.clear();
  block->matched_ = nullptr;
  for (size_t k = 0; k < count; ++k) {
    sessions[k]->block_ = block;
    sessions[k]->member_ = k;
    block->words_.push_back(dist::SymbolView(sessions[k]->word_));
  }
}

}  // namespace privshape::proto
