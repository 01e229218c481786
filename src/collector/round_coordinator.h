#ifndef PRIVSHAPE_COLLECTOR_ROUND_COORDINATOR_H_
#define PRIVSHAPE_COLLECTOR_ROUND_COORDINATOR_H_

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/metrics.h"
#include "collector/sharded_aggregator.h"
#include "common/batch_queue.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/rounds.h"
#include "telemetry/telemetry.h"

namespace privshape::collector {

/// Serving-layer knobs, orthogonal to the mechanism configuration: none of
/// them may change the extracted shapes (that is the determinism
/// contract), only how fast the rounds run.
struct CollectorOptions {
  /// Independent aggregation lanes; 0 means one per pool thread. More
  /// shards than threads is fine (workers pick up whole shards).
  size_t num_shards = 0;
  /// Encoded reports buffered per shard before they are handed to the
  /// aggregation side (one queue item / ConsumeBatch call per batch).
  size_t batch_size = 256;
  /// Batches buffered per drainer queue before Push blocks
  /// (backpressure); 0 means unbounded.
  size_t queue_depth = 8;
};

/// Answers one round's request for one materialized client, appending the
/// encoded report to `out` on success (and appending nothing on failure).
/// `user` is the fleet-wide user id (used by tests to inject mid-stream
/// failures); `scratch` is the calling worker's reusable answer buffers —
/// with a shared RoundContext this whole path allocates nothing per
/// report. Typically `session.AnswerTo(ctx, &scratch, &out)`.
using AnswerFn =
    std::function<Status(proto::ClientSession&, size_t user,
                         proto::AnswerScratch& scratch,
                         proto::ReportBatch& out)>;

/// Everything one round execution produces: the (possibly multi-lane)
/// aggregation state, plus the count of sessions that failed to answer.
struct RoundOutcome {
  ShardedAggregator agg;
  size_t client_errors = 0;
  /// Per-batch ingest latency (one ConsumeBatch call = one sample, in
  /// nanoseconds). A snapshot — plain movable data — because outcomes are
  /// returned by value; the runner's live Histogram never leaves its
  /// round.
  telemetry::HistogramSnapshot ingest_latency;
};

/// The streaming ingest behind every round, in process and over sockets:
/// D bounded MPSC queues, each drained by one dedicated thread into the
/// round's lane-sharded aggregator. Queue d carries the batches of lanes
/// {s : s % D == d}, so drainer d is the only writer of those lanes and
/// aggregation needs no locks; integer-count merging keeps the result
/// independent of which lane ingests what. Drainers are dedicated threads,
/// never pool tasks, because producers blocked on a full queue could
/// starve them.
class RoundIngest {
 public:
  /// Starts min(num_drainers, num_lanes) drainers (at least one) over a
  /// `num_lanes`-lane aggregator for `spec`. Each queue holds at most
  /// `queue_depth` batches (0 = unbounded).
  RoundIngest(const StageSpec& spec, size_t num_lanes, size_t num_drainers,
              size_t queue_depth);
  /// Closes the queues and joins the drainers, so a round abandoned by an
  /// exception never leaves a running drainer behind.
  ~RoundIngest();

  RoundIngest(const RoundIngest&) = delete;
  RoundIngest& operator=(const RoundIngest&) = delete;

  /// Batches queued for drainer `d` right now (a racy snapshot).
  size_t QueueDepth(size_t d) const { return queues_[d]->size(); }

  /// Hands one batch of lane `lane` to drainer lane % D; blocks while that
  /// queue is full (backpressure). Dropped once a drainer has failed —
  /// Finish then rethrows its exception.
  void Push(size_t lane, proto::ReportBatch batch);

  /// Closes the queues, waits until the drainers have consumed every
  /// pushed batch, rethrows the first drainer exception, and returns the
  /// aggregation with its per-batch ingest latencies (client_errors is
  /// the caller's to fill).
  RoundOutcome Finish();

 private:
  struct LaneBatch {
    size_t lane = 0;
    proto::ReportBatch reports;
  };

  void CloseAndJoin();

  RoundOutcome outcome_;
  /// Per-batch ingest latency shared by the drainers (relaxed atomics, one
  /// sample per batch, never per report); heap-allocated because it is
  /// ~24KB of atomics.
  std::unique_ptr<telemetry::Histogram> latency_;
  std::vector<std::unique_ptr<BatchQueue<LaneBatch>>> queues_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> drainers_;
};

/// Executes one collection round over `population` for stage `spec`:
/// whatever the executor (the in-process coordinator, or the socket
/// daemon broadcasting to live connections), the returned aggregation
/// must be exactly what a single unsharded aggregator fed the same
/// reports would hold.
/// `encoded_request` is the round's broadcast message, already encoded —
/// in-process runners ignore it (their clients share the pre-decoded
/// RoundContext), the network runner ships it verbatim to every client.
using RoundRunner = std::function<RoundOutcome(
    const std::vector<size_t>& population, const StageSpec& spec,
    const std::string& encoded_request, const AnswerFn& answer)>;

/// Drives the full Algorithm 2 protocol — core::RunProtocol's schedule,
/// with every server-side decision in core::PrivShapeServer, exactly as
/// the single-threaded pipeline runs it — against `run_round`. Each
/// round's request is encoded once (the bytes a deployment broadcasts,
/// and what bytes_down counts), its shared RoundContext is built from
/// those bytes as every wire client builds it, and the round's StageSpec
/// is read off that context. `num_users` is the whole population (the
/// stage split is the server's only draw from the shared seed). Per-round
/// metrics (stage timings, accepted/rejected/bytes, client errors) and
/// the run's total_seconds are recorded into `metrics` when non-null, on
/// every exit — failed and cancelled runs included.
///
/// Graceful shutdown: DriveProtocol polls common/shutdown.h's flag after
/// every round (and RunRound's stripe workers poll it per user), so a
/// SIGINT mid-protocol stops producing new reports, records the partial
/// round's stats, and returns Status::Cancelled instead of finishing —
/// the caller still holds usable metrics.
Result<core::MechanismResult> DriveProtocol(
    const core::MechanismConfig& config, size_t num_users,
    const RoundRunner& run_round, CollectorMetrics* metrics = nullptr);

/// The in-process collection server: answers rounds over the fleet on its
/// thread pool and ingests reports through a lock-free ShardedAggregator.
/// Aggregation is exact integer merging, so for a fixed fleet seed the
/// result is byte-identical to core::PrivShape::Run on the same words, for
/// any {shard, thread, batch, queue-depth} configuration.
class RoundCoordinator {
 public:
  /// `pool` must outlive the coordinator; pass nullptr to run every round
  /// inline on the calling thread (still sharded, still deterministic).
  RoundCoordinator(core::MechanismConfig config, CollectorOptions options,
                   ThreadPool* pool);

  /// Runs the whole protocol over the fleet. Classification refinement
  /// (config.num_classes > 0) requires a labeled fleet — the P_e round
  /// replaces P_d's GRR with OUE over candidate x class cells.
  Result<core::MechanismResult> Collect(const ClientFleet& fleet,
                                        CollectorMetrics* metrics = nullptr);

  /// Broadcasts one round to `population` and ingests the answers: each
  /// shard's population stripe is answered by a pool worker through
  /// ClientFleet::AnswerRound, calling `answer` once per user in
  /// population order and pushing encoded batches into a RoundIngest with
  /// one lane per stripe and ceil(threads/2) drainers.
  RoundOutcome RunRound(const ClientFleet& fleet,
                        const std::vector<size_t>& population,
                        const StageSpec& spec, const AnswerFn& answer) const;

  size_t EffectiveShards() const;
  size_t EffectiveThreads() const;

 private:
  core::MechanismConfig config_;
  CollectorOptions options_;
  ThreadPool* pool_;
};

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_ROUND_COORDINATOR_H_
