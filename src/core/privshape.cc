#include "core/privshape.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "core/rounds.h"
#include "core/subshape.h"
#include "distance/candidate_table.h"
#include "ldp/estimator_utils.h"
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"

namespace privshape::core {

namespace {

/// The in-process round runner: user u answers with its stage's user-side
/// helper from Rng(DeriveSeed(seed, u)) — exactly the draws its wire-level
/// ClientSession makes — into integer tallies, which are debiased by the
/// same formulas as the wire aggregator's. Matching rounds match their
/// users in blocks (CandidateTable::MatchEach), as the serving loop does.
PS_REPORT_PATH
Result<RoundCounts> AnswerInProcess(const MechanismConfig& config,
                                    const std::vector<Sequence>& sequences,
                                    const std::vector<int>* labels,
                                    const Round& round) {
  const double epsilon = config.epsilon;
  const size_t n = round.population.size();
  auto distance = dist::MakeDistance(config.metric);
  dist::CandidateTable table = dist::CandidateTable::Build(round.candidates);
  SelectionScratch scratch;
  auto word_of = [&](size_t k) {
    return dist::SymbolView(sequences[round.population[k]]);
  };
  switch (round.stage) {
    case Stage::kLength: {
      size_t domain =
          static_cast<size_t>(config.ell_high - config.ell_low + 1);
      std::vector<size_t> counts(domain, 0);
      if (domain == 1) {
        counts[0] = n;  // a one-value domain is reported without randomness
      } else {
        auto grr = ldp::Grr::Create(domain, epsilon);
        if (!grr.ok()) return grr.status();
        for (size_t user : round.population) {
          Rng rng(DeriveSeed(config.seed, user));
          counts[AnswerLengthValue(sequences[user], config.ell_low,
                                   config.ell_high, *grr, &rng)]++;
        }
      }
      return RoundCounts{ldp::DebiasGrrCounts(counts, n, epsilon)};
    }
    case Stage::kSubShape: {
      // The window [1, ell_S) holds one level per adjacent pair.
      int ell_s = static_cast<int>(round.min_level + round.num_levels);
      size_t domain = SubShapeDomainSize(config.t, config.allow_repeats);
      auto grr = ldp::Grr::Create(domain, epsilon);
      if (!grr.ok()) return grr.status();
      std::vector<std::vector<size_t>> counts(
          round.num_levels, std::vector<size_t>(domain, 0));
      std::vector<size_t> reports(round.num_levels, 0);
      for (size_t user : round.population) {
        Rng rng(DeriveSeed(config.seed, user));
        auto [level, value] =
            AnswerSubShapeValue(sequences[user], ell_s, config.t,
                                config.allow_repeats, *grr, &rng);
        counts[level - round.min_level][value]++;
        reports[level - round.min_level]++;
      }
      RoundCounts level_counts;
      for (size_t lvl = 0; lvl < round.num_levels; ++lvl) {
        level_counts.push_back(
            ldp::DebiasGrrCounts(counts[lvl], reports[lvl], epsilon));
      }
      return level_counts;
    }
    case Stage::kSelection: {
      auto em = ldp::ExponentialMechanism::Create(epsilon);
      if (!em.ok()) return em.status();
      std::vector<size_t> counts(round.candidates.size(), 0);
      PRIVSHAPE_RETURN_IF_ERROR(table.MatchEach(
          n, word_of, *distance, /*prefix_compare=*/true, &scratch.table,
          &scratch.distances, [&](size_t k, Span<const double> row) {
            Rng rng(DeriveSeed(config.seed, round.population[k]));
            auto pick = AnswerSelectionValue(row, *em, &scratch, &rng);
            if (!pick.ok()) return pick.status();
            counts[*pick]++;
            return Status::Ok();
          }));
      // Selection counts feed the trie raw.
      return RoundCounts{std::vector<double>(counts.begin(), counts.end())};
    }
    case Stage::kRefinement: {
      size_t domain = std::max<size_t>(round.candidates.size(), 2);
      auto grr = ldp::Grr::Create(domain, epsilon);
      if (!grr.ok()) return grr.status();
      std::vector<size_t> counts(domain, 0);
      PRIVSHAPE_RETURN_IF_ERROR(table.MatchEach(
          n, word_of, *distance, /*prefix_compare=*/false, &scratch.table,
          &scratch.distances, [&](size_t k, Span<const double> row) {
            Rng rng(DeriveSeed(config.seed, round.population[k]));
            counts[AnswerRefinementValue(dist::FirstMinimum(row), *grr,
                                         &rng)]++;
            return Status::Ok();
          }));
      return RoundCounts{ldp::DebiasGrrCounts(counts, n, epsilon)};
    }
    case Stage::kClassRefine: {
      size_t cells =
          round.candidates.size() * static_cast<size_t>(config.num_classes);
      auto oue = ldp::UnaryEncoding::Create(cells, epsilon);
      if (!oue.ok()) return oue.status();
      std::vector<size_t> counts(cells, 0);
      std::vector<uint64_t> words;
      std::vector<uint8_t> bits;
      PRIVSHAPE_RETURN_IF_ERROR(table.MatchEach(
          n, word_of, *distance, /*prefix_compare=*/false, &scratch.table,
          &scratch.distances, [&](size_t k, Span<const double> row) {
            size_t user = round.population[k];
            auto cell = ClassRefineCell(dist::FirstMinimum(row),
                                        (*labels)[user], config.num_classes);
            if (!cell.ok()) return cell.status();
            Rng rng(DeriveSeed(config.seed, user));
            oue->EncodeInto(*cell, &rng, &words, &bits);
            for (size_t i = 0; i < cells; ++i) counts[i] += bits[i];
            return Status::Ok();
          }));
      return RoundCounts{ldp::DebiasOueCounts(counts, n, epsilon)};
    }
  }
  return Status::Internal("unknown stage");
}

}  // namespace

// Run() is Algorithm 2's one schedule (RunProtocol) with the in-process
// runner above. collector::DriveProtocol runs the same schedule over
// encoded reports with the same per-user seeds, so for a fixed seed both
// produce byte-identical shapes for any shard/thread count.
Result<MechanismResult> PrivShape::Run(const std::vector<Sequence>& sequences,
                                       const std::vector<int>* labels) const {
  PRIVSHAPE_RETURN_IF_ERROR(config_.Validate());
  if (sequences.empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  if (config_.num_classes > 0) {
    if (labels == nullptr || labels->size() != sequences.size()) {
      return Status::InvalidArgument(
          "classification refinement requires one label per sequence");
    }
    for (int label : *labels) {
      if (label < 0 || label >= config_.num_classes) {
        return Status::OutOfRange("label outside [0, num_classes)");
      }
    }
  }

  return RunProtocol(config_, sequences.size(), [&](const Round& round) {
    return AnswerInProcess(config_, sequences, labels, round);
  });
}

}  // namespace privshape::core
