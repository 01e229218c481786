/// \file
/// Per-layer measurement for the repository benchmark, taken entirely from
/// outside the library: an instrumented RoundRunner that wraps
/// RoundCoordinator::RunRound and its AnswerFn, plus a shadow replay of a
/// few sampled users against a RoundContext rebuilt from the round's
/// broadcast bytes. Sampled timing never touches the real report stream:
/// the wrapped AnswerFn only reads the clock around the real call, and the
/// shadow replay runs on separate sessions whose reports are discarded.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "telemetry/trace.h"

namespace privshape::perfbench {

/// Steady-clock nanoseconds (the same clock telemetry::TraceNowUs reads).
uint64_t NowNs();

/// Running mean of samples.
struct Mean {
  double sum = 0.0;
  uint64_t n = 0;

  void Add(double v) {
    sum += v;
    ++n;
  }
  void Merge(const Mean& other) {
    sum += other.sum;
    n += other.n;
  }
  double Value() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

/// The round label the library itself uses ("Pa", "Pb", "Pc.level3",
/// "Pd", "Pe"), so runner spans line up with RoundStats and loadgen
/// stage names.
std::string RoundLabel(const collector::StageSpec& spec);

/// The stage family a per-layer metric is keyed by: "Pa", "Pb", "Pc", or
/// "refine" (P_d for clustering, P_e for classification; a run has one).
std::string StageFamily(const collector::StageSpec& spec);

/// What the instrumented runner measured inside one round.
struct RoundLayers {
  std::string label;
  std::string family;
  size_t users = 0;
  size_t stripes = 1;     ///< concurrent producer stripes (shards)
  double span_s = 0.0;    ///< RunRound wall time
  /// Worker time from a sampled user's answer to the next user's:
  /// MakeSession, the stripe loop and the batch hand-off, including any
  /// wait on a full ingest queue. Reported, but not part of EstimateS.
  Mean gap_ns;
  Mean answer_ns;         ///< the real AnswerFn call (answer + encode)
  Mean session_ns;        ///< ClientFleet::MakeSession, in the shadow replay
  double self_ns = 0.0;   ///< instrumentation bookkeeping, all workers

  /// Producer time the directly timed per-user calls predict for this
  /// round: every user pays MakeSession + answer on one of `stripes`
  /// workers, plus the instrumentation's own bookkeeping. The stripe
  /// loop, batch hand-off and queue waits are left out, so they show as
  /// unaccounted time.
  double EstimateS() const;
};

/// Everything one instrumented protocol run measured.
struct ProtocolLayers {
  std::vector<RoundLayers> rounds;
  /// Shadow replay of sampled users, outside the round spans.
  Mean match_ns;   ///< CandidateTable::MatchInto / Closest
  Mean draw_ns;    ///< ClientSession::Answer minus its match
  Mean encode_ns;  ///< proto::EncodeReportTo
  double context_ns = 0.0;  ///< RoundContext rebuilds, summed per protocol
  /// Exact: candidates x candidate length x word length, summed over the
  /// reports of every matching round.
  double dp_cells = 0.0;
  /// Exact: candidates broadcast over the P_c levels and the refinement.
  size_t candidates = 0;
  /// Runner time outside RunRound (the shadow replay, span recording):
  /// instrumentation cost that the protocol wall must not be charged.
  double outside_s = 0.0;
};

/// Instruments in-process protocol runs over fleets tiled from one word
/// pool. For each protocol: BeginProtocol, DriveProtocol with Runner(),
/// TakeProtocol. Drive one protocol at a time.
class LayerTracer {
 public:
  /// `pool` is the tiled word list every served fleet is built from
  /// (user u holds pool[u % pool.size()]). Users are sampled at a rate of
  /// 1 in 2^`sample_shift`, by a hash of the user id so the sample does
  /// not alias the tiling.
  LayerTracer(const std::vector<Sequence>& pool, dist::Metric metric,
              unsigned sample_shift, size_t shadow_users);
  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  /// Starts a protocol over `fleet`, which must outlive it. With a
  /// non-null `spans`, per-round and sampled per-user spans go to it
  /// (named after their layer metric, with the round label as category).
  void BeginProtocol(const collector::ClientFleet& fleet,
                     telemetry::TraceRecorder* spans);

  /// The RoundRunner to hand DriveProtocol; valid while both this tracer
  /// and `coordinator` live.
  collector::RoundRunner Runner(const collector::RoundCoordinator& coordinator);

  ProtocolLayers TakeProtocol() { return std::move(current_); }

 private:
  /// Per-worker accumulators, owned by the tracer and reached through a
  /// thread-local pointer. Workers write only their own slot while a round
  /// runs; the driving thread reads and resets every slot between rounds,
  /// when the pool has joined (ParallelFor's futures order the accesses).
  struct WorkerSlot {
    uint64_t gap_from_ns = 0;
    uint64_t round = 0;
    Mean gap_ns;
    Mean answer_ns;
    uint64_t self_ns = 0;
  };

  bool Sampled(size_t user) const;
  WorkerSlot& Slot();
  collector::AnswerFn Wrap(const collector::AnswerFn& answer,
                           const std::string& label);
  collector::RoundOutcome RunRound(
      const collector::RoundCoordinator& coordinator,
      const std::vector<size_t>& population, const collector::StageSpec& spec,
      const std::string& encoded_request, const collector::AnswerFn& answer);
  void ShadowReplay(const std::vector<size_t>& population,
                    const collector::StageSpec& spec,
                    const std::string& encoded_request, RoundLayers* round);

  const collector::ClientFleet* fleet_ = nullptr;
  const std::vector<Sequence>& pool_;
  dist::Metric metric_;
  unsigned sample_shift_;
  size_t shadow_users_;
  uint64_t id_;
  std::atomic<uint64_t> round_{0};
  telemetry::TraceRecorder* spans_ = nullptr;
  ProtocolLayers current_;

  Mutex slots_mu_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_ PS_GUARDED_BY(slots_mu_);
};

}  // namespace privshape::perfbench

#endif  // PERFBENCH_LAYERS_H_
