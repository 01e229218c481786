/// \file
/// The shared per-round client context. The paper's P_a..P_e rounds
/// broadcast ONE identical request to the whole population (PrivShape
/// §IV, Algorithm 2), so everything derivable from the request alone —
/// the decoded candidate list, the GRR/EM/OUE perturbation parameters,
/// the distance kernel — is round-constant. RoundContext materializes that
/// work exactly once; every client answer then runs against a
/// `const RoundContext&` plus a per-worker `AnswerScratch`, and the
/// per-report hot path performs no heap allocation at all.
///
/// Every client builds its context from the round's broadcast bytes
/// (FromRequest) — the in-process collector once per round, each socket
/// client from the RoundBegin it receives — so all of them answer against
/// the state a deployed client would hold.

#ifndef PRIVSHAPE_PROTOCOL_ROUND_CONTEXT_H_
#define PRIVSHAPE_PROTOCOL_ROUND_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/em_selection.h"
#include "distance/candidate_table.h"
#include "distance/distance.h"
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"
#include "protocol/messages.h"
#include "series/sequence.h"

namespace privshape::proto {

/// Upper bound on the candidates x num_classes cell grid a
/// class-refinement round may announce: each client ships one OUE bit
/// per cell, so an unbounded wire-decoded product would let one corrupt
/// broadcast demand multi-gigabyte reports. Real rounds use c*k
/// candidates x tens of classes — orders of magnitude below this.
inline constexpr uint64_t kMaxClassRefineCells = 1u << 20;

/// Reusable per-worker buffers for the zero-allocation answer path: the
/// EM selection chain's table DP rows, distances and draw buffers
/// (core::SelectionScratch), the raw engine block of an OUE bit
/// fill, and the Report the answer is written into. One instance per
/// worker thread (or per population stripe); never shared across threads.
struct AnswerScratch : core::SelectionScratch {
  std::vector<uint64_t> words;  ///< raw engine block for batched OUE bits
  Report report;
};

/// Immutable, shareable state of one collection round, built once per
/// round and read concurrently by every client answer. Construction
/// validates the request; answering against a context of the wrong kind
/// fails.
class RoundContext {
 public:
  /// The context of a round from its broadcast bytes: decodes the request
  /// a `kind` round carries and builds the matching context below.
  static Result<RoundContext> FromRequest(ReportKind kind,
                                          std::string_view encoded_request,
                                          dist::Metric metric);

  /// P_a: GRR over the clipped length range [ell_low, ell_high]. A
  /// one-value range is served deterministically (no mechanism).
  static Result<RoundContext> Length(int ell_low, int ell_high,
                                     double epsilon);
  static Result<RoundContext> Length(const LengthRequest& request);

  /// P_b: padding-and-sampling sub-shape report. `alphabet` is the SAX
  /// alphabet size; `ell_s` the announced trie height (>= 2).
  static Result<RoundContext> SubShape(int alphabet, int ell_s,
                                       double epsilon, bool allow_repeats);
  static Result<RoundContext> SubShape(const SubShapeRequest& request);

  /// P_c: EM selection over the broadcast candidate list.
  static Result<RoundContext> Selection(CandidateRequest request,
                                        dist::Metric metric);
  static Result<RoundContext> Selection(std::string_view encoded_request,
                                        dist::Metric metric);

  /// P_d (clustering): GRR over the index of the closest candidate.
  static Result<RoundContext> Refinement(CandidateRequest request,
                                         dist::Metric metric);
  static Result<RoundContext> Refinement(std::string_view encoded_request,
                                         dist::Metric metric);

  /// P_e (classification, §V-E): OUE over the candidate x class cell
  /// grid. The perturbation parameters p/q are fixed at construction so
  /// every per-report draw is a plain Bernoulli against shared constants.
  static Result<RoundContext> ClassRefinement(ClassRefineRequest request,
                                              dist::Metric metric);
  static Result<RoundContext> ClassRefinement(
      std::string_view encoded_request, dist::Metric metric);

  ReportKind kind() const { return kind_; }
  uint64_t level() const { return level_; }
  double epsilon() const { return epsilon_; }
  /// One level's report domain: the value range of the GRR/EM kinds; for
  /// kClassRefine the OUE bit-vector length, candidates x num_classes.
  size_t domain() const { return domain_; }
  const std::vector<Sequence>& candidates() const {
    return table_.candidates();
  }

  /// The candidate trie (built once at construction) every answer of
  /// the round matches against; empty for P_a/P_b rounds.
  const dist::CandidateTable& table() const { return table_; }

  // Stage parameters (meaningful for the kinds that set them).
  int ell_low() const { return ell_low_; }
  int ell_high() const { return ell_high_; }
  int alphabet() const { return alphabet_; }
  int ell_s() const { return ell_s_; }
  bool allow_repeats() const { return allow_repeats_; }

  // Classification-refinement parameters (kClassRefine only).
  int num_classes() const { return num_classes_; }

  /// The pre-built mechanisms. grr() is absent only for the one-value
  /// P_a domain; em() is present only for kSelection; oue() only for
  /// kClassRefine (it carries the batched bit-fill path).
  const ldp::Grr* grr() const { return grr_ ? &*grr_ : nullptr; }
  const ldp::ExponentialMechanism* em() const { return em_ ? &*em_ : nullptr; }
  const ldp::UnaryEncoding* oue() const { return oue_ ? &*oue_ : nullptr; }

  /// The pre-built distance kernel (kSelection/kRefinement only).
  const dist::SequenceDistance* distance() const { return distance_.get(); }

 private:
  RoundContext() = default;

  ReportKind kind_ = ReportKind::kLength;
  uint64_t level_ = 0;
  double epsilon_ = 0.0;
  size_t domain_ = 0;
  int ell_low_ = 0;
  int ell_high_ = 0;
  int alphabet_ = 0;
  int ell_s_ = 0;
  bool allow_repeats_ = false;
  int num_classes_ = 0;
  std::optional<ldp::Grr> grr_;
  std::optional<ldp::ExponentialMechanism> em_;
  std::optional<ldp::UnaryEncoding> oue_;
  std::unique_ptr<const dist::SequenceDistance> distance_;
  dist::CandidateTable table_;
};

}  // namespace privshape::proto

#endif  // PRIVSHAPE_PROTOCOL_ROUND_CONTEXT_H_
