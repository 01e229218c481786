/// \file
/// Module `collector` — the serving layer over the protocol: a sharded,
/// multi-threaded collection server that drives Algorithm 2's four rounds
/// (P_a..P_d) over a simulated fleet of clients. Invariant: for a fixed
/// fleet seed the extracted shapes are byte-identical to the
/// single-threaded core pipeline, for any shard/thread count.

#ifndef PRIVSHAPE_COLLECTOR_CLIENT_FLEET_H_
#define PRIVSHAPE_COLLECTOR_CLIENT_FLEET_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/config.h"
#include "core/pipeline.h"
#include "distance/distance.h"
#include "protocol/session.h"
#include "series/sequence.h"

namespace privshape::collector {

/// A simulated fleet of `num_users` clients, materialized lazily: the
/// fleet holds only a word-synthesis function and a base seed, and builds
/// user u's ClientSession on demand with randomness derived from
/// DeriveSeed(seed, u). A session is 5064 bytes on x86-64 whatever its
/// word length — two 312-word engine states, LazyMt64's prefix array and
/// its std::optional<std::mt19937_64> fallback — plus the word's heap
/// buffer. Only sessions in flight exist: a serving loop holds one
/// SessionBlock of kSessionBlock of them (~40 KB) per population stripe or
/// loadgen connection, so a million-user fleet costs nothing until its
/// users are asked to answer — and every materialization of the same user
/// yields the same session.
class ClientFleet {
 public:
  /// Users a serving loop builds, seeds and answers together: one
  /// interleaved seeding group of LazyMt64::SeedFresh.
  static constexpr size_t kSessionBlock = LazyMt64::kSeedLanes;

  /// Caller-owned storage for one block of sessions, reused across
  /// blocks: MakeSessions builds each session in place, so no engine is
  /// moved or copied per user.
  using SessionBlock =
      std::array<std::optional<proto::ClientSession>, kSessionBlock>;

  /// Synthesizes user u's private compressed word. Must be deterministic
  /// in u and thread-safe (it is called concurrently from round workers).
  using WordFn = std::function<Sequence(size_t user)>;

  /// User u's private class label in [0, num_classes), required by the
  /// classification refinement round. Same contract as WordFn
  /// (deterministic, thread-safe); a null LabelFn means the fleet is
  /// unlabeled and can only serve the clustering protocol.
  using LabelFn = std::function<int(size_t user)>;

  ClientFleet(size_t num_users, WordFn word_fn, dist::Metric metric,
              uint64_t seed, LabelFn label_fn = nullptr)
      : num_users_(num_users),
        word_fn_(std::move(word_fn)),
        label_fn_(std::move(label_fn)),
        metric_(metric),
        seed_(seed) {}

  /// Fleet over a fixed word list, tiled when `num_users` exceeds it.
  /// The list is captured by value (words are tiny); use the WordFn
  /// constructor to avoid materializing giant fleets. A non-empty
  /// `labels` list (which must be the same length as `words`) is tiled
  /// identically, so user u keeps the label of its word.
  static ClientFleet FromWords(std::vector<Sequence> words,
                               size_t num_users, dist::Metric metric,
                               uint64_t seed,
                               std::vector<int> labels = {});

  /// The tiling WordFn FromWords is built on (modulo indexing; an empty
  /// list yields empty words), reusable where only the word source is
  /// needed.
  static WordFn TiledWords(std::vector<Sequence> words);

  /// The matching label tiler (same modulo as TiledWords, so a label
  /// always rides with its word). An empty list yields a null LabelFn —
  /// an unlabeled fleet.
  static LabelFn TiledLabels(std::vector<int> labels);

  size_t num_users() const { return num_users_; }
  dist::Metric metric() const { return metric_; }
  uint64_t seed() const { return seed_; }

  /// True when the fleet carries per-user labels (classification can be
  /// served over the wire).
  bool labeled() const { return label_fn_ != nullptr; }

  /// Materializes user u's client endpoint. The session owns the user's
  /// word, label (-1 when unlabeled), and a per-user Rng stream; the
  /// caller drives exactly one Answer* call on it (each user belongs to
  /// one round's population).
  proto::ClientSession MakeSession(size_t user) const;

  /// Block form of MakeSession for the serving loops: builds the sessions
  /// of users[0..count) (count <= kSessionBlock) in place in
  /// (*block)[0..count) — each the session MakeSession returns — and
  /// seeds their engines together as deep as one answer to a round of
  /// `kind` over `domain` reads (proto::ClientSession::SeedFresh). The
  /// seeding draws nothing, so every answer is the one MakeSession's
  /// session gives.
  void MakeSessions(const size_t* users, size_t count,
                    proto::ReportKind kind, size_t domain,
                    SessionBlock* block) const;

  /// User u's word alone (used by the determinism check, which feeds the
  /// same words to the single-threaded core pipeline).
  Sequence WordFor(size_t user) const { return word_fn_(user); }

  /// User u's label, or -1 for an unlabeled fleet.
  int LabelFor(size_t user) const {
    return label_fn_ ? label_fn_(user) : -1;
  }

  /// All words, in user order. O(n) memory — determinism checks only.
  std::vector<Sequence> MaterializeWords() const;

  /// All labels, in user order (empty for an unlabeled fleet).
  std::vector<int> MaterializeLabels() const;

 private:
  size_t num_users_;
  WordFn word_fn_;
  LabelFn label_fn_;
  dist::Metric metric_;
  uint64_t seed_;
};

/// The one word source for generated fleets (the CLI, the throughput
/// bench, and the example all share it — a fleet built from the same
/// `dataset` and `seed` is the same fleet everywhere): user u's raw
/// Trace-/Symbols-style instance (class u mod #classes) is synthesized
/// from a data stream derived off `seed` — deliberately disjoint from the
/// per-user privacy streams DeriveSeed(seed, u) — then pushed through
/// GeneratedTransform(dataset). `dataset` must be "trace" or "symbols".
Result<ClientFleet::WordFn> GeneratedWordSource(const std::string& dataset,
                                                uint64_t seed);

/// The matching label source for generated fleets: user u's ground-truth
/// class is `u % classes` (trace: 3, symbols: 6) — exactly the class its
/// GeneratedWordSource instance was synthesized from, so a labeled fleet
/// built from both functions is self-consistent.
Result<ClientFleet::LabelFn> GeneratedLabelSource(const std::string& dataset);

/// Class count of a generated dataset (trace: 3, symbols: 6).
Result<int> GeneratedNumClasses(const std::string& dataset);

/// Paper-default mechanism configuration for a generated dataset (§V-B3):
/// Trace t=4/k=3/ell_high=10/SED, Symbols t=6/k=6/ell_high=15/DTW. Both
/// the in-process collector CLI and the daemon/loadgen pair start from
/// this one helper, so a dataset name means the same mechanism everywhere.
Result<core::MechanismConfig> GeneratedDatasetConfig(
    const std::string& dataset);

/// The mechanism flags of the three collection binaries (--epsilon,
/// --seed, --k, --c and --num-classes >= 0) over
/// GeneratedDatasetConfig(defaults_dataset)'s paper defaults, so a flag
/// means the same mechanism in the collector, the daemon and loadgen.
/// Every error names its flag.
Result<core::MechanismConfig> MechanismConfigFromArgs(
    const CliArgs& args, const std::string& defaults_dataset);

/// The paper's Compressive-SAX transform for a generated dataset (§V-B3):
/// Trace t=4/w=10, Symbols t=6/w=25 — the alphabet size matching
/// GeneratedDatasetConfig's t. Generated fleets, CSV fleets and the
/// paper-figure benches all transform through it.
Result<core::TransformOptions> GeneratedTransform(const std::string& dataset);

/// Parses a single-column CSV of integer class labels (one per row) and
/// validates every value against [0, num_classes) at ingest time — a bad
/// label is a clear InvalidArgument here, never a failure deep inside the
/// refinement round. Multi-column rows are rejected.
Result<std::vector<int>> ParseLabelsCsv(const std::string& text,
                                        int num_classes);

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_CLIENT_FLEET_H_
