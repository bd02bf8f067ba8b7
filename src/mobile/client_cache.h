// Simulated client-side node cache: which LOD nodes the device currently
// holds, bounded by the device's cache budget (LRU by byte charge).

#ifndef DRUGTREE_MOBILE_CLIENT_CACHE_H_
#define DRUGTREE_MOBILE_CLIENT_CACHE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "mobile/protocol.h"
#include "storage/lru_cache.h"

namespace drugtree {
namespace mobile {

class ClientCache {
 public:
  explicit ClientCache(uint64_t capacity_bytes)
      : cache_(capacity_bytes) {
    cache_.EnableMetrics("mobile.client_cache");
  }

  /// Installs shipped nodes (called after a frame arrives).
  void Install(const std::vector<LodNode>& nodes);

  /// The node-id sets the delta encoder consults: the ids the LRU holds
  /// collapsed, and the ids it holds expanded. Kept up to date by Install
  /// (inserts, re-installs with a flipped flag, evictions) and Clear, so a
  /// frame probes them instead of rebuilding them.
  const std::unordered_set<int64_t>& CollapsedIds() const {
    return collapsed_;
  }
  const std::unordered_set<int64_t>& ExpandedIds() const { return expanded_; }

  size_t size() const { return cache_.size(); }
  const storage::CacheStats& stats() const { return cache_.stats(); }
  void Clear();

 private:
  // Key: node id; value: collapsed flag. Charge = kBytesPerNode.
  storage::LruCache<int64_t, bool> cache_;
  // Exactly the LRU's keys, split by their collapsed flag.
  std::unordered_set<int64_t> collapsed_;
  std::unordered_set<int64_t> expanded_;
};

}  // namespace mobile
}  // namespace drugtree

#endif  // DRUGTREE_MOBILE_CLIENT_CACHE_H_
