/// \file
/// Algorithm 2 as one schedule of explicit rounds. `RunProtocol` is the
/// only place the P_a -> P_b -> ell_S x P_c -> P_d/P_e order is written,
/// and `PrivShapeServer` the single implementation of every server-side
/// decision (length argmax, transition gating, trie pruning, refinement,
/// post-processing). The in-process `core::PrivShape` and the wire-level
/// `collector::DriveProtocol` are that schedule plus a round runner, which
/// is what makes their outputs byte-identical. The Answer* helpers are the
/// user-side step of each stage, shared by both runners; every user's
/// randomness comes from DeriveSeed(seed, user), so results do not depend
/// on iteration or thread order.

#ifndef PRIVSHAPE_CORE_ROUNDS_H_
#define PRIVSHAPE_CORE_ROUNDS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/span.h"
#include "core/config.h"
#include "core/em_selection.h"
#include "core/subshape.h"
#include "distance/candidate_table.h"
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "trie/trie.h"

namespace privshape::core {

/// Server-side state machine of PrivShape (Algorithm 2). The caller runs
/// the collection rounds (locally or over the wire) and feeds back the
/// aggregated counts; the server makes every decision that follows from
/// them. Methods must be called in protocol order:
///
///   FinishLength -> FinishSubShapes -> (BeginTrieLevel, FinishTrieLevel)
///   x ell_S -> BeginRefinement -> one of FinishRefinement /
///   FinishClassRefinement / FinishWithoutRefinement.
///
/// The final Finish* call consumes the server and returns the
/// MechanismResult (including the privacy-accountant audit trail).
class PrivShapeServer {
 public:
  static Result<PrivShapeServer> Create(MechanismConfig config);

  const MechanismConfig& config() const { return config_; }

  /// Top c*k candidates survive pruning at every level.
  size_t ck() const;

  /// P_a: fixes the trie height ell_S from debiased length counts
  /// (argmax; first maximum wins) and charges the accountant.
  Status FinishLength(const std::vector<double>& debiased_counts);

  int frequent_length() const { return ell_s_; }

  /// Number of sub-shape levels (ell_S - 1; 0 means skip the P_b round).
  size_t NumSubShapeLevels() const;

  /// P_b: ranks the per-level debiased pair counts into the transition
  /// gates used by the trie expansion. Pass {} when ell_S == 1.
  Status FinishSubShapes(const std::vector<std::vector<double>>& level_counts);

  /// P_c, one call per level in [0, ell_S): prunes the frontier, expands
  /// it (gated by the frequent transitions, falling back to the full
  /// fan-out when the gate would dead-end), and returns the candidate
  /// shapes to broadcast for EM selection.
  Result<std::vector<Sequence>> BeginTrieLevel(int level);

  /// Feeds back one selection count per candidate returned by the matching
  /// BeginTrieLevel call.
  Status FinishTrieLevel(const std::vector<double>& selection_counts);

  /// P_d: prunes the leaves to the top c*k and returns the refinement
  /// candidate list (errors if the trie dead-ended).
  Result<std::vector<Sequence>> BeginRefinement();

  /// Clustering refinement: debiased GRR counts over candidate indices
  /// (domain max(|candidates|, 2)). Runs post-processing and returns the
  /// final result.
  Result<MechanismResult> FinishRefinement(
      const std::vector<double>& debiased_counts);

  /// Classification refinement (§V-E): debiased OUE counts over
  /// candidate x class cells, row-major.
  Result<MechanismResult> FinishClassRefinement(
      const std::vector<double>& cell_counts);

  /// Ablation (`disable_refinement`): ranks leaves by their last
  /// trie-level EM counts; P_d stays unused.
  Result<MechanismResult> FinishWithoutRefinement();

 private:
  explicit PrivShapeServer(MechanismConfig config,
                           trie::CandidateTrie trie)
      : config_(config), trie_(std::move(trie)) {}

  /// Stage 5 (post-processing) for the clustering task, shared by
  /// FinishRefinement and FinishWithoutRefinement.
  Result<MechanismResult> Finalize(const std::vector<double>& refined,
                                   const std::vector<int>& refined_labels);

  /// Fills result_.refined_pool from the refinement candidates.
  void BuildRefinedPool(const std::vector<double>& refined,
                        const std::vector<int>& refined_labels);

  /// Shared epilogue: frequency-sorts result_.shapes (stable, so
  /// already-ordered pushes keep their order), audits the budget, and
  /// consumes the server.
  Result<MechanismResult> EmitSorted();

  MechanismConfig config_;
  trie::CandidateTrie trie_;
  MechanismResult result_;
  SubShapeEstimates subshapes_;
  int ell_s_ = 0;
  int current_level_ = -1;       ///< level served by the last BeginTrieLevel
  std::vector<Sequence> candidates_;  ///< refinement candidates
};

/// Per-user answer computations shared by the in-process runner and the
/// wire-level ClientSession, so one user produces the same perturbed
/// report (same draws, same order) on either path. These are the only
/// implementations of the user-side logic.
///
/// P_a: length clipped into [ell_low, ell_high], GRR-perturbed. `grr`
/// must span the (ell_high - ell_low + 1)-value domain, which must have
/// >= 2 values (the one-value domain reports 0 without randomness; both
/// callers special-case it).
PS_RNG_WORDS(2)
size_t AnswerLengthValue(const Sequence& word, int ell_low, int ell_high,
                         const ldp::Grr& grr, Rng* rng);

/// P_b: samples level j uniformly from {1, ..., ell_s - 1}, then GRR-
/// perturbs the index of the adjacent pair at j (the sentinel bucket for
/// padded or invalid positions). Returns {level, perturbed value}.
PS_REPORT_PATH
std::pair<uint64_t, size_t> AnswerSubShapeValue(const Sequence& word,
                                                int ell_s, int t,
                                                bool allow_repeats,
                                                const ldp::Grr& grr,
                                                Rng* rng);

/// P_c: the EM-selected candidate index for one word's distance row (the
/// word against every candidate, a longer word through its equally long
/// prefix, Lemma 1 — `CandidateTable::MatchBlock` with `prefix_compare`).
/// The draw is ExponentialMechanism::SelectFromDistances, which weighs
/// DTW and SED distances once per value rather than once per candidate,
/// and releases the same index, from the same engine words, as
/// ScoresFromDistancesInto + Select.
PS_REPORT_PATH
Result<size_t> AnswerSelectionValue(Span<const double> distances,
                                    const ldp::ExponentialMechanism& em,
                                    SelectionScratch* scratch, Rng* rng);

/// P_d (clustering): GRR over the index of the closest candidate (the
/// first minimum of the word's full-word row, dist::FirstMinimum). `grr`
/// must span max(|candidates|, 2) values.
PS_RNG_WORDS(2)
size_t AnswerRefinementValue(size_t closest, const ldp::Grr& grr, Rng* rng);

/// P_e (classification): the (closest candidate, label) cell of the
/// row-major candidate x class grid, which the user's OUE report encodes.
/// Fails when `label` is outside [0, num_classes): no report may leave an
/// unlabeled or mislabeled device.
PS_REPORT_PATH
Result<size_t> ClassRefineCell(size_t closest, int label, int num_classes);

/// The collection stages of Algorithm 2.
enum class Stage {
  kLength,       ///< P_a: GRR over the clipped length
  kSubShape,     ///< P_b: GRR over one sampled adjacent pair
  kSelection,    ///< P_c: EM over one trie level's candidates
  kRefinement,   ///< P_d: GRR over the refinement candidates
  kClassRefine,  ///< P_e: OUE over candidate x class cells
};

/// One round of the schedule, as RunProtocol hands it to a runner.
struct Round {
  Stage stage;
  std::string label;  ///< "Pa", "Pb", "Pc.level<i>", "Pd" or "Pe"
  /// The users who answer; disjoint from every other round's population.
  const std::vector<size_t>& population;
  /// Report levels the round accepts, [min_level, min_level + num_levels):
  /// [1, ell_S) for P_b, [i, i + 1) for P_c level i, [0, 1) otherwise.
  uint64_t min_level;
  size_t num_levels;
  /// The broadcast candidates of P_c, P_d and P_e; empty otherwise.
  std::vector<Sequence> candidates;
};

/// A runner's result for one round: one debiased count vector per level
/// of the round's window (raw selection counts for P_c).
using RoundCounts = std::vector<std::vector<double>>;
using RoundFn = std::function<Result<RoundCounts>(const Round&)>;

/// Algorithm 2's schedule, the one place its round order is written.
/// Splits `num_users` into the disjoint P_a, P_b, P_c and P_d populations
/// (the split is the only draw from the shared seed), then runs P_a -> P_b
/// (skipped when ell_S = 1) -> ell_S x P_c -> P_d, or P_e when
/// config.num_classes > 0 (neither with disable_refinement), handing each
/// round to `run_round` and its counts to a PrivShapeServer. Every user
/// answers at most one round, so the result is eps-LDP at the user level
/// (Theorem 3). A runner error ends the protocol with that status before
/// any further server decision.
Result<MechanismResult> RunProtocol(const MechanismConfig& config,
                                    size_t num_users,
                                    const RoundFn& run_round);

}  // namespace privshape::core

#endif  // PRIVSHAPE_CORE_ROUNDS_H_
