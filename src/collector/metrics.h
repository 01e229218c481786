#ifndef PRIVSHAPE_COLLECTOR_METRICS_H_
#define PRIVSHAPE_COLLECTOR_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace privshape::collector {

/// Throughput/latency counters of one collection round.
struct RoundStats {
  std::string stage;         ///< "Pa", "Pb", "Pc.level0", ..., "Pd"/"Pe"
  size_t users = 0;          ///< requests issued (population size)
  size_t accepted = 0;       ///< reports that passed validation
  size_t rejected = 0;       ///< malformed / wrong-kind / out-of-window
  size_t client_errors = 0;  ///< sessions that failed to answer at all
  size_t bytes_up = 0;       ///< report bytes ingested (client -> server)
  size_t bytes_down = 0;     ///< request bytes broadcast (server -> client)
  double seconds = 0.0;      ///< wall-clock of the whole round

  /// Per-batch ingest latency distribution (one ConsumeBatch call = one
  /// sample), derived from the round's log-linear histogram — so the
  /// percentiles carry its <=6.25% relative bucketing error. All zero
  /// when the runner did not time its batches.
  uint64_t ingest_batches = 0;  ///< timed ConsumeBatch calls
  double ingest_p50_ns = 0.0;
  double ingest_p95_ns = 0.0;
  double ingest_p99_ns = 0.0;
  uint64_t ingest_max_ns = 0;
  double ingest_mean_ns = 0.0;

  /// Ingestion rate: every report that reached the aggregation side
  /// (accepted + rejected) over wall-clock. Rejects cost ingest work too,
  /// so this is the serving-capacity number — but it is NOT a useful-work
  /// rate; a flood of garbage inflates it.
  double IngestedPerSec() const;

  /// Useful-work rate: only reports that passed validation.
  double AcceptedPerSec() const;
};

/// Whole-run metrics, exported as JSON so the perf trajectory of the
/// collector is machine-readable from the first PR that ships it.
struct CollectorMetrics {
  size_t num_users = 0;
  size_t num_shards = 0;   ///< aggregation lanes
  size_t num_threads = 0;
  size_t queue_depth = 0;  ///< streaming queue capacity (0 = unbounded)
  std::string ingest = "streaming";  ///< "streaming" (in process), "socket"
  double total_seconds = 0.0;
  std::vector<RoundStats> rounds;

  /// Socket-daemon counters (all zero for in-process runs).
  size_t connections = 0;      ///< handshaked connections that served rounds
  size_t disconnects = 0;      ///< connections lost before Complete
  size_t protocol_errors = 0;  ///< connections dropped for wire violations
  size_t stale_batches = 0;    ///< uploads for a past round, discarded
  size_t deadline_drops = 0;   ///< connections dropped at a round deadline

  size_t TotalReports() const;  ///< ingested: accepted + rejected
  size_t TotalAccepted() const;
  size_t TotalRejected() const;
  size_t TotalBytesUp() const;
  double TotalIngestedPerSec() const;
  double TotalAcceptedPerSec() const;

  JsonValue ToJson() const;

  /// Writes ToJson() pretty-printed to `path`.
  Status WriteJsonFile(const std::string& path) const;
};

/// Writes any JSON document pretty-printed to `path` (the CLI uses this
/// for ToJson() augmented with the extracted shapes).
Status WriteJsonFile(const JsonValue& doc, const std::string& path);

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_METRICS_H_
