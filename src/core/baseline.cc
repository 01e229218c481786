#include "core/baseline.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "core/em_selection.h"
#include "core/length_estimation.h"
#include "core/population.h"
#include "trie/trie.h"

namespace privshape::core {

Result<MechanismResult> BaselineMechanism::Run(
    const std::vector<Sequence>& sequences) const {
  PRIVSHAPE_RETURN_IF_ERROR(config_.Validate());
  if (sequences.empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  Rng rng(config_.seed);
  MechanismResult result;

  // The baseline only has two populations: P_a (length) and P_b (trie).
  FourWaySplit split = SplitFourWay(sequences.size(), config_.frac_a,
                                    /*fb=*/0.0, /*fc=*/1.0 - config_.frac_a,
                                    /*fd=*/0.0, &rng);
  const std::vector<size_t>& pa = split.pa;
  const std::vector<size_t>& pb = split.pc;  // trie population

  auto ell = EstimateFrequentLength(sequences, pa, config_.ell_low,
                                    config_.ell_high, config_.epsilon, &rng);
  if (!ell.ok()) return ell.status();
  int ell_s = *ell;
  result.frequent_length = ell_s;
  PRIVSHAPE_RETURN_IF_ERROR(result.accountant.Charge("Pa", config_.epsilon));

  auto trie_r = trie::CandidateTrie::Create(config_.t);
  if (!trie_r.ok()) return trie_r.status();
  trie::CandidateTrie trie = std::move(*trie_r);
  if (config_.allow_repeats) trie.set_allow_repeats(true);

  std::vector<std::vector<size_t>> level_groups =
      PartitionGroups(pb, static_cast<size_t>(ell_s));

  for (int level = 0; level < ell_s; ++level) {
    // Prune the current level, then expand (Algorithm 1 line 6).
    if (level > 0) {
      // If the threshold would prune everything, stop with the current
      // frontier intact so the mechanism still outputs its best shapes.
      double max_freq = 0.0;
      for (int id : trie.Frontier()) {
        max_freq = std::max(max_freq, trie.Frequency(id));
      }
      if (max_freq < config_.baseline_threshold) {
        PS_LOG(kWarning) << "baseline: threshold would prune all candidates "
                            "at level "
                         << level << "; stopping early";
        break;
      }
      trie.PruneBelowThreshold(config_.baseline_threshold);
      trie.ExpandAll();
    } else {
      trie.ExpandRoot();
    }

    std::vector<Sequence> candidates = trie.FrontierCandidates();
    auto counts = EmSelectionCounts(
        candidates, sequences, level_groups[static_cast<size_t>(level)],
        config_.metric, config_.epsilon, &rng);
    if (!counts.ok()) return counts.status();
    PRIVSHAPE_RETURN_IF_ERROR(result.accountant.Charge(
        "Pb.level" + std::to_string(level), config_.epsilon));

    const std::vector<int>& frontier = trie.Frontier();
    for (size_t i = 0; i < frontier.size(); ++i) {
      PRIVSHAPE_RETURN_IF_ERROR(
          trie.SetFrequency(frontier[i], (*counts)[i]));
    }
  }

  // Output the top-k frequent shapes from the leaves.
  std::vector<int> leaves = trie.Frontier();
  std::stable_sort(leaves.begin(), leaves.end(), [&](int a, int b) {
    return trie.Frequency(a) > trie.Frequency(b);
  });
  size_t keep = std::min(static_cast<size_t>(config_.k), leaves.size());
  for (size_t i = 0; i < keep; ++i) {
    ShapeCandidate cand;
    cand.shape = trie.PathTo(leaves[i]);
    cand.frequency = trie.Frequency(leaves[i]);
    result.shapes.push_back(std::move(cand));
  }
  PRIVSHAPE_RETURN_IF_ERROR(
      result.accountant.CheckWithinBudget(config_.epsilon));
  return result;
}

}  // namespace privshape::core
