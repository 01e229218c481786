#include "core/pem.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "core/population.h"
#include "ldp/accountant.h"
#include "ldp/estimator_utils.h"
#include "ldp/grr.h"

namespace privshape::core {

namespace {

/// All `gamma`-symbol extensions of `prefix` (respecting the compression
/// invariant unless repeats are allowed).
void ExtendPrefix(const Sequence& prefix, int remaining, int t,
                  bool allow_repeats, Sequence* scratch,
                  std::vector<Sequence>* out) {
  if (remaining == 0) {
    Sequence candidate = prefix;
    candidate.insert(candidate.end(), scratch->begin(), scratch->end());
    out->push_back(std::move(candidate));
    return;
  }
  Symbol last = scratch->empty()
                    ? (prefix.empty() ? 255 : prefix.back())
                    : scratch->back();
  for (int s = 0; s < t; ++s) {
    Symbol sym = static_cast<Symbol>(s);
    if (!allow_repeats && sym == last) continue;
    scratch->push_back(sym);
    ExtendPrefix(prefix, remaining - 1, t, allow_repeats, scratch, out);
    scratch->pop_back();
  }
}

}  // namespace

Status PemConfig::Validate() const {
  PRIVSHAPE_RETURN_IF_ERROR(ldp::CheckEpsilon(epsilon));
  if (t < 2 || t > 26) {
    return Status::InvalidArgument("alphabet size must be in [2, 26]");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (keep < static_cast<size_t>(k)) {
    return Status::InvalidArgument("keep must be >= k");
  }
  if (gamma < 1) return Status::InvalidArgument("gamma must be >= 1");
  if (ell < 1) return Status::InvalidArgument("ell must be >= 1");
  return Status::Ok();
}

Result<MechanismResult> PemMiner::Run(
    const std::vector<Sequence>& sequences) const {
  PRIVSHAPE_RETURN_IF_ERROR(config_.Validate());
  if (sequences.empty()) return Status::InvalidArgument("empty dataset");

  Rng rng(config_.seed);
  MechanismResult result;
  result.frequent_length = config_.ell;

  int rounds = (config_.ell + config_.gamma - 1) / config_.gamma;
  std::vector<size_t> users(sequences.size());
  std::iota(users.begin(), users.end(), 0);
  rng.Shuffle(&users);
  std::vector<std::vector<size_t>> groups =
      PartitionGroups(users, static_cast<size_t>(rounds));

  std::vector<std::pair<Sequence, double>> survivors = {{Sequence{}, 0.0}};
  int current_len = 0;

  for (int round = 0; round < rounds; ++round) {
    int step = std::min(config_.gamma, config_.ell - current_len);
    // Candidate set: every surviving prefix extended by `step` symbols.
    std::vector<Sequence> candidates;
    for (const auto& [prefix, _] : survivors) {
      Sequence scratch;
      ExtendPrefix(prefix, step, config_.t, config_.allow_repeats, &scratch,
                   &candidates);
    }
    if (candidates.empty()) {
      return Status::Internal("PEM produced no candidates");
    }
    current_len += step;

    // Index for exact prefix lookup; "other" = last bucket.
    std::map<Sequence, size_t> index;
    for (size_t i = 0; i < candidates.size(); ++i) index[candidates[i]] = i;
    size_t domain = std::max<size_t>(candidates.size() + 1, 2);
    auto grr = ldp::Grr::Create(domain, config_.epsilon);
    if (!grr.ok()) return grr.status();

    std::vector<size_t> tally(domain, 0);
    const std::vector<size_t>& group = groups[static_cast<size_t>(round)];
    for (size_t user : group) {
      const Sequence& word = sequences[user];
      size_t value = candidates.size();  // "other"
      if (word.size() >= static_cast<size_t>(current_len)) {
        Sequence prefix(word.begin(), word.begin() + current_len);
        auto it = index.find(prefix);
        if (it != index.end()) value = it->second;
      }
      tally[grr->PerturbValue(value, &rng)]++;
    }
    PRIVSHAPE_RETURN_IF_ERROR(result.accountant.Charge(
        "PEM.round" + std::to_string(round), config_.epsilon));

    std::vector<double> counts =
        ldp::DebiasGrrCounts(tally, group.size(), config_.epsilon);
    std::vector<size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return counts[a] > counts[b];
    });
    size_t keep = std::min(config_.keep, order.size());
    survivors.clear();
    for (size_t i = 0; i < keep; ++i) {
      survivors.push_back({candidates[order[i]], counts[order[i]]});
    }
  }

  size_t emit = std::min(static_cast<size_t>(config_.k), survivors.size());
  for (size_t i = 0; i < emit; ++i) {
    ShapeCandidate cand;
    cand.shape = survivors[i].first;
    cand.frequency = survivors[i].second;
    result.shapes.push_back(std::move(cand));
  }
  PRIVSHAPE_RETURN_IF_ERROR(
      result.accountant.CheckWithinBudget(config_.epsilon));
  return result;
}

}  // namespace privshape::core
