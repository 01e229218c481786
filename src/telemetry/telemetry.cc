#include "telemetry/telemetry.h"

#include <algorithm>
#include <utility>

namespace privshape::telemetry {

namespace {

/// Position of the highest set bit (0 for value 0). C++17-portable
/// (std::bit_width is C++20); the loop halves the search space, so this
/// is a fixed six iterations, not a per-bit scan.
inline int HighestBit(uint64_t v) {
  int msb = 0;
  for (int shift : {32, 16, 8, 4, 2, 1}) {
    if (v >> shift) {
      v >>= shift;
      msb += shift;
    }
  }
  return msb;
}

}  // namespace

size_t Counter::ThisThreadShard() {
  static std::atomic<size_t> next_thread{0};
  thread_local size_t shard =
      next_thread.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

size_t HistogramBucketIndex(uint64_t value) {
  if (value < kHistogramSubBuckets) return static_cast<size_t>(value);
  int msb = HighestBit(value);  // >= 4 here
  size_t decade = static_cast<size_t>(msb - 3);
  size_t sub = static_cast<size_t>(value >> (msb - 4)) & 15u;
  size_t index = decade * kHistogramSubBuckets + sub;
  return std::min(index, kHistogramBuckets - 1);
}

uint64_t HistogramBucketLowerBound(size_t index) {
  if (index < kHistogramSubBuckets) return index;
  size_t decade = index / kHistogramSubBuckets;  // >= 1
  uint64_t sub = index % kHistogramSubBuckets;
  return (kHistogramSubBuckets + sub) << (decade - 1);
}

uint64_t HistogramBucketUpperBound(size_t index) {
  if (index + 1 >= kHistogramBuckets) return ~uint64_t{0};
  return HistogramBucketLowerBound(index + 1);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the q-quantile among `count` ordered samples (1-based).
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
  if (target < 1) target = 1;
  if (target > count) target = count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] >= target) {
      // Interpolate the rank's position inside this bucket's value span.
      double lo = static_cast<double>(HistogramBucketLowerBound(i));
      double hi = static_cast<double>(HistogramBucketUpperBound(i));
      double within = static_cast<double>(target - cumulative) /
                      static_cast<double>(buckets[i]);
      double value = lo + (hi - lo) * within;
      // The true maximum is tracked exactly; no estimate may exceed it.
      return std::min(value, static_cast<double>(max));
    }
    cumulative += buckets[i];
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.buckets.empty()) return;
  if (buckets.empty()) buckets.assign(kHistogramBuckets, 0);
  for (size_t i = 0; i < buckets.size() && i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kHistogramBuckets);
  // Count is re-derived from the bucket sum (not count_) so the snapshot
  // is internally consistent even while records land concurrently.
  uint64_t total = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap.buckets[i];
  }
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Merge(const HistogramSnapshot& snapshot) {
  for (size_t i = 0; i < snapshot.buckets.size() && i < kHistogramBuckets;
       ++i) {
    if (snapshot.buckets[i] > 0) {
      buckets_[i].fetch_add(snapshot.buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(snapshot.count, std::memory_order_relaxed);
  sum_.fetch_add(snapshot.sum, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (snapshot.max > seen &&
         !max_.compare_exchange_weak(seen, snapshot.max,
                                     std::memory_order_relaxed)) {
  }
}

void AppendSample(const std::string& name, const char* type,
                  const std::string& value, std::string* out) {
  *out += "# TYPE " + name + " " + type + "\n";
  *out += name + " " + value + "\n";
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // never destroyed: cached
  return *registry;                            // pointers outlive exit
}

Counter* Registry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string Registry::TextExposition() const {
  MutexLock lock(&mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& [name, counter] : counters_) {
    AppendSample(name, "counter", std::to_string(counter->Value()), &out);
  }
  for (const auto& [name, gauge] : gauges_) {
    AppendSample(name, "gauge", std::to_string(gauge->Value()), &out);
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap = histogram->Snapshot();
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      if (snap.buckets[i] == 0) continue;  // elide empty buckets
      cumulative += snap.buckets[i];
      out += name + "_bucket{le=\"" +
             std::to_string(HistogramBucketUpperBound(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
    out += name + "_sum " + std::to_string(snap.sum) + "\n";
    out += name + "_count " + std::to_string(snap.count) + "\n";
  }
  return out;
}

JsonValue Registry::JsonSnapshot() const {
  MutexLock lock(&mu_);
  JsonValue doc = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, JsonValue::Uint(counter->Value()));
  }
  doc.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, JsonValue::Int(gauge->Value()));
  }
  doc.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap = histogram->Snapshot();
    JsonValue h = JsonValue::Object();
    h.Set("count", JsonValue::Uint(snap.count));
    h.Set("sum", JsonValue::Uint(snap.sum));
    h.Set("max", JsonValue::Uint(snap.max));
    h.Set("mean", JsonValue::Num(snap.Mean()));
    h.Set("p50", JsonValue::Num(snap.Quantile(0.50)));
    h.Set("p95", JsonValue::Num(snap.Quantile(0.95)));
    h.Set("p99", JsonValue::Num(snap.Quantile(0.99)));
    histograms.Set(name, std::move(h));
  }
  doc.Set("histograms", std::move(histograms));
  return doc;
}

}  // namespace privshape::telemetry
