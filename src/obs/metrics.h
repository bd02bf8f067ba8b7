// Process-wide metrics registry: named, label-capable counters, gauges, and
// histograms that every layer (storage, integration, query, mobile) registers
// into. Replaces the siloed per-component counters as the *reporting* surface
// — components keep their cheap local counters for tests, and mirror them
// here so benches and EXPLAIN-style tooling see one unified snapshot.
//
// Naming scheme: dot-separated "<layer>.<component>.<event>", e.g.
// "network.requests", "storage.buffer_pool.hits", "query.result_cache.misses",
// "mobile.session.frames". Labels (optional, ordered key=value)
// discriminate instances: GetCounter("network.requests", {{"link","3g"}}).
//
// Counters are sharded atomics (write-mostly, read-rarely); gauges are single
// atomics; histograms reuse util::Histogram under a mutex. Metric pointers
// returned by the registry are valid for the registry's lifetime, so hot
// paths resolve them once at construction and bump without any lookup.

#ifndef DRUGTREE_OBS_METRICS_H_
#define DRUGTREE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace drugtree {
namespace obs {

/// Ordered label set; ordering makes the rendered name canonical.
using Labels = std::map<std::string, std::string>;

/// Monotonic counter, thread-safe via cache-line-sharded atomics so
/// concurrent writers (thread pool workers, parallel sessions) do not
/// contend on one line.
class Counter {
 public:
  void Add(int64_t delta) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Point-in-time sum over shards (racy under concurrent writes, exact
  /// once writers quiesce — the snapshot contract).
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };

  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

/// Last-write-wins instantaneous value (cache occupancy, queue depth).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Distribution metric over util::Histogram (latencies, payload sizes).
class HistogramMetric {
 public:
  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(value);
  }

  util::Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }

  /// The approximate p-th percentile (p in [0, 100]) of everything observed
  /// so far, with util::Histogram's bucket-interpolation semantics. The
  /// accessor benches and reports use for p50/p95/p99 instead of re-deriving
  /// percentiles from snapshots by hand.
  double ValueAtPercentile(double p) const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_.Percentile(p);
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Clear();
  }

 private:
  mutable std::mutex mu_;
  util::Histogram hist_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's frozen state inside a RegistrySnapshot.
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;        // counters and gauges
  util::Histogram hist;     // histograms

  /// Canonical rendered identity: name or name{k=v,...}.
  std::string FullName() const;
};

/// A consistent-enough view of every registered metric, sorted by FullName.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// Lookup by FullName(); null when absent.
  const MetricSnapshot* Find(const std::string& full_name) const;

  /// Convenience: counter/gauge value by FullName, 0 when absent.
  int64_t Value(const std::string& full_name) const;

  /// Aligned "name value" text block (human / log consumption).
  std::string ToText() const;

  /// JSON object {"metrics":[{name, labels, kind, value|histogram}...]}.
  std::string ToJson() const;
};

/// The registry. Metrics are created on first Get*() and live as long as the
/// registry; repeated Get*() with the same (name, labels) returns the same
/// pointer. Kind conflicts (a name requested as two different kinds) fail a
/// DT_CHECK — names are a global contract.
class MetricRegistry {
 public:
  /// Shared process-wide instance — the one every subsystem registers into.
  static MetricRegistry* Default();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  HistogramMetric* GetHistogram(const std::string& name,
                                const Labels& labels = {});

  RegistrySnapshot Snapshot() const;

  /// Zeroes every registered metric (pointers stay valid) — used by benches
  /// between phases and by tests.
  void ResetAll();

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Entry* GetOrCreate(const std::string& name, const Labels& labels,
                     MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // keyed by FullName
};

}  // namespace obs
}  // namespace drugtree

#endif  // DRUGTREE_OBS_METRICS_H_
