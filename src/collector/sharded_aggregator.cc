#include "collector/sharded_aggregator.h"

#include <algorithm>

namespace privshape::collector {

ShardedAggregator::ShardedAggregator(const StageSpec& spec,
                                     size_t num_shards)
    : spec_(spec) {
  shards_.resize(std::max<size_t>(num_shards, 1));
  for (Shard& shard : shards_) {
    shard.counts.assign(spec_.num_levels * spec_.domain, 0);
    shard.accepted.assign(spec_.num_levels, 0);
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
  if (!proto::DecodeReportInto(encoded, &report).ok() ||
      report.kind != spec_.kind || report.level < spec_.min_level ||
      report.level - spec_.min_level >= spec_.num_levels) {
    ++lane.rejected;
    return;
  }
  size_t bucket = static_cast<size_t>(report.level - spec_.min_level);
  // A local bound: a store through `counts` could alias spec_.domain, and
  // a bound reloaded every iteration keeps the P_e loop scalar.
  size_t domain = spec_.domain;
  size_t* counts = lane.counts.data() + bucket * domain;
  if (spec_.kind == proto::ReportKind::kClassRefine) {
    // A P_e report is a whole OUE bit vector: anything but exactly one
    // bit per cell, or a stray value, is malformed.
    if (report.value != 0 || report.bits.size() != domain) {
      ++lane.rejected;
      return;
    }
    for (size_t i = 0; i < domain; ++i) counts[i] += report.bits[i] != 0;
  } else {
    if (report.value >= domain) {
      ++lane.rejected;
      return;
    }
    ++counts[report.value];
  }
  ++lane.accepted[bucket];
}

std::vector<size_t> ShardedAggregator::Tally(size_t level_bucket) const {
  std::vector<size_t> tally(spec_.domain, 0);
  for (const Shard& shard : shards_) {
    const size_t* counts = shard.counts.data() + level_bucket * spec_.domain;
    for (size_t v = 0; v < spec_.domain; ++v) tally[v] += counts[v];
  }
  return tally;
}

size_t ShardedAggregator::accepted(size_t level_bucket) const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.accepted[level_bucket];
  return total;
}

std::vector<double> ShardedAggregator::DebiasedCounts(
    size_t level_bucket) const {
  return proto::DebiasTally(spec_.kind, Tally(level_bucket),
                            accepted(level_bucket), spec_.epsilon);
}

size_t ShardedAggregator::accepted() const {
  size_t total = 0;
  for (size_t bucket = 0; bucket < spec_.num_levels; ++bucket) {
    total += accepted(bucket);
  }
  return total;
}

size_t ShardedAggregator::rejected() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.rejected;
  return total;
}

size_t ShardedAggregator::bytes_ingested() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.bytes;
  return total;
}

}  // namespace privshape::collector
