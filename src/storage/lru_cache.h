// Generic size-bounded LRU cache with hit/miss statistics. Backs the block
// cache, the semantic result cache (query/result_cache.h), the integration
// layer's record cache, and the simulated mobile client cache.

#ifndef DRUGTREE_STORAGE_LRU_CACHE_H_
#define DRUGTREE_STORAGE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/resource_tracker.h"

namespace drugtree {
namespace storage {

/// Counters shared by all cache instances' reporting.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// LRU cache keyed by K. Each entry carries a charge (its "size"); the cache
/// evicts LRU entries once total charge exceeds capacity. K must be hashable
/// and equality-comparable; V must be copyable (entries are returned by
/// value so eviction cannot dangle).
template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(uint64_t capacity) : capacity_(capacity) {}

  /// Mirrors hit/miss/eviction counts into the process metric registry as
  /// `<name>.hits|misses|evictions` (e.g. "query.result_cache.hits"). Call
  /// once, right after construction; off by default so anonymous caches
  /// (tests, scratch instances) stay out of the registry.
  void EnableMetrics(const std::string& name) {
    auto* registry = obs::MetricRegistry::Default();
    metric_hits_ = registry->GetCounter(name + ".hits");
    metric_misses_ = registry->GetCounter(name + ".misses");
    metric_evictions_ = registry->GetCounter(name + ".evictions");
  }

  /// Mirrors the cache's resident bytes (`used()`) into a MemoryTracker
  /// node, so cache memory shows up in the server's resource hierarchy.
  /// Unconditional charges: the cache polices itself by eviction; the
  /// tracker observes. Pass null to detach. Synchronization follows the
  /// cache's own contract (callers of the mutating methods serialize).
  void AttachMemoryTracker(obs::MemoryTracker* tracker) {
    if (tracker_ != nullptr && used_ > 0) {
      tracker_->Release(static_cast<int64_t>(used_));
    }
    tracker_ = tracker;
    if (tracker_ != nullptr && used_ > 0) {
      tracker_->Charge(static_cast<int64_t>(used_));
    }
  }

  /// Inserts or overwrites. charge must be >= 1. Entries larger than the
  /// whole capacity are not cached (returns false). When `evicted` is
  /// non-null, the keys of the LRU entries this insert pushed out are
  /// appended to it (never `key` itself).
  bool Put(const K& key, V value, uint64_t charge = 1,
           std::vector<K>* evicted = nullptr) {
    if (charge > capacity_) return false;
    auto it = map_.find(key);
    if (it != map_.end()) {
      SubUsed(it->second.charge);
      order_.erase(it->second.pos);
      map_.erase(it);
    }
    order_.push_front(key);
    map_.emplace(key, Entry{std::move(value), charge, order_.begin()});
    AddUsed(charge);
    ++stats_.insertions;
    EvictIfNeeded(evicted);
    return true;
  }

  /// Looks a key up, refreshing recency. Returns nullopt on miss.
  std::optional<V> Get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      if (metric_misses_ != nullptr) metric_misses_->Increment();
      return std::nullopt;
    }
    ++stats_.hits;
    if (metric_hits_ != nullptr) metric_hits_->Increment();
    order_.erase(it->second.pos);
    order_.push_front(key);
    it->second.pos = order_.begin();
    return it->second.value;
  }

  /// Peek without recency update or stats (used by tests).
  bool Contains(const K& key) const { return map_.count(key) > 0; }

  /// Removes a key if present.
  void Erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    SubUsed(it->second.charge);
    order_.erase(it->second.pos);
    map_.erase(it);
  }

  void Clear() {
    map_.clear();
    order_.clear();
    SubUsed(used_);
  }

  size_t size() const { return map_.size(); }
  uint64_t used() const { return used_; }
  uint64_t capacity() const { return capacity_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    V value;
    uint64_t charge;
    typename std::list<K>::iterator pos;
  };

  void EvictIfNeeded(std::vector<K>* evicted) {
    while (used_ > capacity_ && !order_.empty()) {
      const K& victim = order_.back();
      if (evicted != nullptr) evicted->push_back(victim);
      auto it = map_.find(victim);
      SubUsed(it->second.charge);
      map_.erase(it);
      order_.pop_back();
      ++stats_.evictions;
      if (metric_evictions_ != nullptr) metric_evictions_->Increment();
    }
  }

  void AddUsed(uint64_t charge) {
    used_ += charge;
    if (tracker_ != nullptr) tracker_->Charge(static_cast<int64_t>(charge));
  }
  void SubUsed(uint64_t charge) {
    used_ -= charge;
    if (tracker_ != nullptr) tracker_->Release(static_cast<int64_t>(charge));
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::list<K> order_;  // MRU first
  std::unordered_map<K, Entry> map_;
  CacheStats stats_;
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
  obs::MemoryTracker* tracker_ = nullptr;  // mirrors used(); may be null
};

}  // namespace storage
}  // namespace drugtree

#endif  // DRUGTREE_STORAGE_LRU_CACHE_H_
