/// \file
/// Module `telemetry` — live instrumentation for the collector stack:
/// sharded relaxed-atomic counters, gauges, and fixed-bucket log-linear
/// latency histograms behind a named Registry, plus text (Prometheus
/// exposition style) and JSON snapshots a scraper can pull mid-round
/// without pausing ingestion.
///
/// Record-path cost contract: Counter::Add, Gauge::Set/Add, and
/// Histogram::Record are a handful of arithmetic instructions plus
/// relaxed-ordering atomic increments — no locks, no allocation, no
/// branches that depend on whether anyone is scraping. Lookup
/// (Registry::GetCounter and friends) takes a mutex and may allocate, so
/// call sites resolve their instruments once and cache the pointer; the
/// returned pointers stay valid for the registry's lifetime. Snapshots
/// read the same relaxed atomics, so a scrape races benignly with
/// recording: it observes some recent value, never tears or blocks the
/// hot path.

#ifndef PRIVSHAPE_TELEMETRY_TELEMETRY_H_
#define PRIVSHAPE_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace privshape::telemetry {

/// Monotonically increasing event count, sharded across cache lines so N
/// threads incrementing the same counter never bounce one line between
/// cores. Add is a relaxed fetch_add on the calling thread's shard;
/// Value() sums the shards (racy-but-consistent snapshot: it can miss
/// increments that happen during the sum, never invent them).
class Counter {
 public:
  static constexpr size_t kShards = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  /// Each thread picks one shard for its whole lifetime (round-robin over
  /// thread creation order), so a stable worker set spreads evenly.
  static size_t ThisThreadShard();

  Cell cells_[kShards];
};

/// A last-write-wins instantaneous value (queue depth, live connections).
/// Unsharded: gauges are typically written by one owner (or through
/// Add/Sub deltas, which commute), and reads want the single current
/// value, not a per-thread sum.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-linear histogram bucketing for non-negative integer samples
/// (nanoseconds by convention; the `_ns` name suffix says so). Values
/// below 16 get exact unit-width buckets; above that, every power of two
/// is split into 16 linear sub-buckets, so any recorded value lands in a
/// bucket whose width is at most 1/16 (6.25%) of its lower bound — tight
/// enough that p50/p95/p99 derived from bucket counts stay within that
/// relative error of the exact order statistics.
inline constexpr size_t kHistogramSubBuckets = 16;
/// 16 unit buckets + 60 split powers of two covers the full uint64 range.
inline constexpr size_t kHistogramBuckets = 61 * kHistogramSubBuckets;

/// Bucket index for a sample (total order, surjective onto
/// [0, kHistogramBuckets)).
size_t HistogramBucketIndex(uint64_t value);

/// Smallest sample mapping to bucket `index` (inverse of the above on
/// bucket lower bounds).
uint64_t HistogramBucketLowerBound(size_t index);

/// Exclusive upper bound of bucket `index`: the lower bound of index+1,
/// or uint64 max for the last bucket.
uint64_t HistogramBucketUpperBound(size_t index);

/// A point-in-time copy of a histogram's state: plain data, movable,
/// mergeable — the form histograms travel in (per-round snapshots into
/// RoundStats, scrape output, cross-thread handoff).
struct HistogramSnapshot {
  std::vector<uint64_t> buckets;  ///< kHistogramBuckets counts (or empty)
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  bool empty() const { return count == 0; }
  double Mean() const { return count > 0 ? static_cast<double>(sum) /
                                               static_cast<double>(count)
                                         : 0.0; }

  /// Value at quantile `q` in [0, 1], linearly interpolated inside the
  /// bucket holding the target rank (and clamped to the recorded max, so
  /// p100 of {5} is 5, not the bucket's upper bound). 0 when empty.
  double Quantile(double q) const;

  /// Adds `other`'s counts into this snapshot.
  void Merge(const HistogramSnapshot& other);
};

/// Fixed-bucket concurrent histogram. Record is bucket-index arithmetic
/// plus relaxed atomic adds (bucket, count, sum) and a load-mostly max
/// update — safe and lock-free from any number of threads.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Racy-but-consistent copy (bucket counts may trail `count` by
  /// in-flight records; never negative, never torn).
  HistogramSnapshot Snapshot() const;

  /// Folds a snapshot (e.g. one round's local histogram) into this one.
  void Merge(const HistogramSnapshot& snapshot);

 private:
  std::atomic<uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Appends one counter or gauge sample, text-exposition style, with its
/// type line: "# TYPE <name> <type>\n<name> <value>\n". The registry's
/// exposition writes its counters and gauges through it, and so does an
/// owner that renders its own record into a scrape.
void AppendSample(const std::string& name, const char* type,
                  const std::string& value, std::string* out);

/// Named instrument directory. Get* registers on first use and returns
/// the same pointer thereafter (mutex-guarded — resolve once, cache the
/// pointer, record through it). Snapshots walk every instrument with
/// relaxed reads; they never block recorders.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrument records into.
  static Registry& Default();

  Counter* GetCounter(const std::string& name) PS_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) PS_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) PS_EXCLUDES(mu_);

  /// Prometheus-style text exposition: `# TYPE` lines, counter/gauge
  /// samples, histograms as cumulative `_bucket{le="..."}` series (empty
  /// buckets elided) plus `_sum`/`_count`.
  std::string TextExposition() const PS_EXCLUDES(mu_);

  /// The same state as one JSON object: counters/gauges as numbers,
  /// histograms as {count, sum, max, mean, p50, p95, p99}.
  JsonValue JsonSnapshot() const PS_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // std::map: stable pointers, deterministic exposition order. The maps
  // are mutex-guarded; the instruments they point at are lock-free and
  // deliberately NOT guarded (record/read through the returned pointers
  // is the whole point of the relaxed-atomic design).
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ PS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PS_GUARDED_BY(mu_);
};

}  // namespace privshape::telemetry

#endif  // PRIVSHAPE_TELEMETRY_TELEMETRY_H_
