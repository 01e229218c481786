/// \file
/// Module `protocol` — client/server framing of the collection rounds
/// (stages P_a..P_e of Algorithm 2) as encoded request/report messages.
/// Invariant: the only bytes that leave a ClientSession are the perturbed
/// reports produced by Answer, and all privacy-relevant
/// randomness is drawn from the client's own Rng.

#ifndef PRIVSHAPE_PROTOCOL_SESSION_H_
#define PRIVSHAPE_PROTOCOL_SESSION_H_

#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/span.h"
#include "common/status.h"
#include "distance/distance.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "series/sequence.h"

namespace privshape::proto {

/// The distance rows of a block of sessions built together
/// (collector::ClientFleet::AnswerRound). ClientSession::MatchTogether
/// links the sessions to one BlockMatch; the first P_c/P_d/P_e answer
/// among them matches every member's word in one CandidateTable::MatchBlock
/// trie walk and leaves each member's row here for its own answer.
/// Caller-owned and reused across blocks; it must outlive its sessions.
class BlockMatch {
 private:
  friend class ClientSession;
  std::vector<dist::SymbolView> words_;    ///< the members' words, in order
  const RoundContext* matched_ = nullptr;  ///< the round the rows answer
  std::vector<double> rows_;               ///< member k's at [k * size]
};

/// The user-side endpoint of the collection protocol. Owns the user's
/// private compressed word; Answer performs the round's local
/// perturbation — the stage's user-side helper from core/rounds.h,
/// which the in-process runner calls too — against a shared pre-decoded
/// RoundContext plus per-worker scratch, allocating nothing per report.
/// The Report it writes is the only data that ever leaves the device, and
/// all privacy-relevant randomness comes from the client's own Rng. A
/// session matches its word alone, or, linked to a BlockMatch, together
/// with the sessions built alongside it — the same row either way.
class ClientSession {
 public:
  /// `label` is the user's private class label, required only for the
  /// classification refinement round (P_e); -1 means unlabeled. Like the
  /// word, it is only ever read inside this session's local perturbation.
  /// The distance metric is a round property: the RoundContext carries it.
  ClientSession(Sequence word, uint64_t seed, int label = -1)
      : word_(std::move(word)), rng_(seed), label_(label) {}

  int label() const { return label_; }

  /// Answers the round `ctx` announces (dispatching on ctx.kind()):
  /// writes the answer into *out (bits cleared, every field set).
  /// `scratch` may be nullptr; the stages that need buffers then allocate
  /// locally. P_e fails (no report leaves the device) when the session is
  /// unlabeled or the label falls outside the announced class count.
  PS_REPORT_PATH
  Status Answer(const RoundContext& ctx, AnswerScratch* scratch, Report* out);

  /// Answer + encode into the caller's batch buffer (appends only on
  /// success). The full zero-allocation per-report path.
  PS_REPORT_PATH
  Status AnswerTo(const RoundContext& ctx, AnswerScratch* scratch,
                  ReportBatch* out);

  /// Seeds the engines of sessions[0..count), freshly built together,
  /// as deep as one answer to a round of `kind` over `domain` (the
  /// context's kind() and domain()) reads — Rng::SeedFresh. Consumes no
  /// randomness, so every later answer is unchanged; the depth only
  /// decides how much seeding moves out of the answer.
  static void SeedFresh(ClientSession* const* sessions, size_t count,
                        ReportKind kind, size_t domain);

  /// Links sessions[0..count), built together and kept in place, to
  /// `block` (reset): the first P_c/P_d/P_e answer among them matches all
  /// of their words at once, and each then answers from its own row.
  /// Every member answers the same round — the context is the key — as a
  /// block seeded for one round by SeedFresh does.
  static void MatchTogether(ClientSession* const* sessions, size_t count,
                            BlockMatch* block);

 private:
  /// This session's distance row against `ctx`'s candidates: its
  /// block's (the block's first call matches every member), or, alone,
  /// its own MatchInto into scratch->distances.
  PS_REPORT_PATH
  Span<const double> DistanceRow(const RoundContext& ctx,
                                 bool prefix_compare, AnswerScratch* scratch);

  // One step per stage, each against a shared context of its own kind.

  /// P_a.
  PS_REPORT_PATH
  Status AnswerLength(const RoundContext& ctx, Report* out);

  /// P_b.
  PS_REPORT_PATH
  Status AnswerSubShape(const RoundContext& ctx, Report* out);

  /// P_c: match -> score -> EM select, entirely in scratch buffers.
  PS_REPORT_PATH
  Status AnswerSelection(const RoundContext& ctx, AnswerScratch* scratch,
                         Report* out);

  /// P_d: closest-candidate argmin through the table, then GRR.
  PS_REPORT_PATH
  Status AnswerRefinement(const RoundContext& ctx, AnswerScratch* scratch,
                          Report* out);

  /// P_e: closest-candidate argmin, then the OUE perturbation of the
  /// (candidate, label) cell written straight into out->bits (whose
  /// capacity is reused across reports).
  PS_REPORT_PATH
  Status AnswerClassRefinement(const RoundContext& ctx,
                               AnswerScratch* scratch, Report* out);

  Sequence word_;
  Rng rng_;
  int label_ = -1;
  BlockMatch* block_ = nullptr;  ///< the block's shared rows, if linked
  size_t member_ = 0;            ///< this session's row in block_
};

}  // namespace privshape::proto

#endif  // PRIVSHAPE_PROTOCOL_SESSION_H_
