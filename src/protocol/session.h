/// \file
/// Module `protocol` — client/server framing of the collection rounds
/// (stages P_a..P_e of Algorithm 2) as encoded request/report messages.
/// Invariant: the only bytes that leave a ClientSession are the perturbed
/// reports produced by Answer, and all privacy-relevant
/// randomness is drawn from the client's own Rng.

#ifndef PRIVSHAPE_PROTOCOL_SESSION_H_
#define PRIVSHAPE_PROTOCOL_SESSION_H_

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/status.h"
#include "distance/distance.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "series/sequence.h"

namespace privshape::proto {

/// The user-side endpoint of the collection protocol. Owns the user's
/// private compressed word; Answer performs the round's local
/// perturbation — the stage's user-side helper from core/rounds.h,
/// which the in-process runner calls too — against a shared pre-decoded
/// RoundContext plus per-worker scratch, allocating nothing per report.
/// The Report it writes is the only data that ever leaves the device, and
/// all privacy-relevant randomness comes from the client's own Rng.
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

 private:
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
};

}  // namespace privshape::proto

#endif  // PRIVSHAPE_PROTOCOL_SESSION_H_
