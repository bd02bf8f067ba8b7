#include "mobile/client_cache.h"

namespace drugtree {
namespace mobile {

void ClientCache::Install(const std::vector<LodNode>& nodes) {
  std::vector<int64_t> evicted;
  for (const auto& n : nodes) {
    evicted.clear();
    if (!cache_.Put(n.id, n.collapsed, kBytesPerNode, &evicted)) continue;
    // A re-install may flip the flag, so the id leaves the other set.
    (n.collapsed ? expanded_ : collapsed_).erase(n.id);
    (n.collapsed ? collapsed_ : expanded_).insert(n.id);
    // Victims leave now: a later node of the same frame may bring one back.
    for (int64_t id : evicted) {
      collapsed_.erase(id);
      expanded_.erase(id);
    }
  }
}

void ClientCache::Clear() {
  cache_.Clear();
  collapsed_.clear();
  expanded_.clear();
}

}  // namespace mobile
}  // namespace drugtree
