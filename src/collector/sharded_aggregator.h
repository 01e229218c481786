#ifndef PRIVSHAPE_COLLECTOR_SHARDED_AGGREGATOR_H_
#define PRIVSHAPE_COLLECTOR_SHARDED_AGGREGATOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/analysis_annotations.h"
#include "protocol/messages.h"

namespace privshape::collector {

/// What one collection round aggregates: the report kind it accepts, the
/// per-level report domain, the budget used for debiasing, and the level
/// window. Single-level stages (P_a, P_d, one trie level of P_c) set
/// num_levels = 1 with min_level = the expected level; the P_b round spans
/// levels [1, ell_s).
struct StageSpec {
  proto::ReportKind kind = proto::ReportKind::kLength;
  size_t domain = 0;
  double epsilon = 0.0;
  uint64_t min_level = 0;
  size_t num_levels = 1;
};

/// The server's tally of one round's encoded reports, in N lanes.
///
/// Each lane holds one num_levels x domain integer table, the accepted
/// count of each level bucket, its rejected and byte counts, so ingestion
/// is lock-free: a lane must only be fed from one thread at a time (the
/// round's ingest assigns each lane to exactly one drainer), and no
/// synchronization is needed anywhere on the hot path. Summing integer
/// tables is exact and associative, so debiased estimates are
/// byte-identical for any lane count and any ingestion order.
class ShardedAggregator {
 public:
  /// `num_shards` >= 1 independent ingestion lanes.
  ShardedAggregator(const StageSpec& spec, size_t num_shards);

  /// Ingests a batch of encoded reports into one lane. Each report is
  /// decoded from an in-place view of the flat batch buffer into the
  /// lane's one reused Report, so ingestion allocates nothing per
  /// report. A report is counted only if it decodes, has the round's
  /// kind, lies inside the level window and fits the domain: a value
  /// below it, or for kClassRefine a zero value and exactly `domain`
  /// bits. Every other report counts as rejected. Not synchronized: one
  /// thread per lane at a time.
  PS_REPORT_PATH
  void ConsumeBatch(size_t shard, const proto::ReportBatch& reports);

  /// The integer tally of one level bucket (0-based within the level
  /// window), summed across lanes: reports per value, or set bits per
  /// cell for kClassRefine. Exactly what one lane fed every report holds.
  std::vector<size_t> Tally(size_t level_bucket) const;

  /// Reports accepted into one level bucket, across lanes.
  size_t accepted(size_t level_bucket) const;

  /// proto::DebiasTally of one level bucket's tally over its accepted
  /// reports.
  std::vector<double> DebiasedCounts(size_t level_bucket) const;

  /// Totals across lanes and levels.
  size_t accepted() const;
  size_t rejected() const;
  size_t bytes_ingested() const;

 private:
  struct Shard {
    /// Bucket-major: bucket b's counts are [b * domain, (b + 1) * domain).
    std::vector<size_t> counts;
    std::vector<size_t> accepted;  ///< per level bucket
    size_t rejected = 0;
    size_t bytes = 0;
    /// Every report of the lane decodes into this one, so its bits keep
    /// their capacity from report to report.
    proto::Report report;
  };

  /// Decode (into lane.report) + validate + count of one encoded report:
  /// the only code that counts a report on the server.
  void ConsumeOne(Shard& lane, std::string_view encoded);

  StageSpec spec_;
  std::vector<Shard> shards_;
};

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_SHARDED_AGGREGATOR_H_
