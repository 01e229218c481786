#include "collector/sharded_aggregator.h"

#include <algorithm>

namespace privshape::collector {

ShardedAggregator::ShardedAggregator(const StageSpec& spec,
                                     size_t num_shards)
    : spec_(spec) {
  shards_.resize(std::max<size_t>(num_shards, 1));
  for (Shard& shard : shards_) {
    shard.levels.reserve(spec_.num_levels);
    for (size_t lvl = 0; lvl < spec_.num_levels; ++lvl) {
      shard.levels.emplace_back(spec_.kind, spec_.domain, spec_.epsilon);
    }
  }
}

PS_REPORT_PATH
void ShardedAggregator::ConsumeBatch(size_t shard,
                                     const proto::ReportBatch& reports) {
  Shard& lane = shards_[shard % shards_.size()];
  for (size_t i = 0; i < reports.size(); ++i) {
    ConsumeOne(lane, reports.view(i));
  }
}

void ShardedAggregator::ConsumeOne(Shard& lane, std::string_view encoded) {
  lane.bytes += encoded.size();
  proto::Report& report = lane.report;
  if (!proto::DecodeReportInto(encoded, &report).ok()) {
    ++lane.rejected;
    return;
  }
  if (report.level < spec_.min_level ||
      report.level - spec_.min_level >= spec_.num_levels) {
    ++lane.rejected;
    return;
  }
  lane.levels[static_cast<size_t>(report.level - spec_.min_level)]
      .ConsumeReport(report);
}

proto::ReportAggregator ShardedAggregator::MergedLevel(
    size_t level_bucket) const {
  proto::ReportAggregator merged(spec_.kind, spec_.domain, spec_.epsilon);
  for (const Shard& shard : shards_) {
    // Same spec by construction, so Merge cannot fail.
    (void)merged.Merge(shard.levels[level_bucket]);
  }
  return merged;
}

std::vector<double> ShardedAggregator::DebiasedCounts(
    size_t level_bucket) const {
  return MergedLevel(level_bucket).EstimatedCounts();
}

size_t ShardedAggregator::accepted() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& agg : shard.levels) total += agg.accepted();
  }
  return total;
}

size_t ShardedAggregator::rejected() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.rejected;
    for (const auto& agg : shard.levels) total += agg.rejected();
  }
  return total;
}

size_t ShardedAggregator::bytes_ingested() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.bytes;
  return total;
}

}  // namespace privshape::collector
