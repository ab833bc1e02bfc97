// On-chip counter/MAC/tree-node metadata cache (paper Table 1: 32KB,
// 8-way, shared by all encryption metadata).
//
// Timing-model component: tracks which 64-byte metadata lines (counter
// lines, tree nodes, and — in the separate-MAC baseline — MAC lines) are
// resident on chip. A resident tree node is *verified and trusted*, so a
// verification walk stops at the first cached ancestor; that is the
// latency-saving property Gassend-style tree caching provides (§2.2).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.h"
#include "common/stats.h"

namespace secmem {

class MetadataCache {
 public:
  // Counter references stay valid for the registry's lifetime (see
  // StatRegistry), so the map lookups happen once here, not per access.
  MetadataCache(const CacheConfig& config, StatRegistry& stats)
      : cache_(config),
        hits_(stats.counter("metacache.hits")),
        misses_(stats.counter("metacache.misses")) {}

  struct Access {
    bool hit;
    /// Dirty metadata line displaced by this fill (must be written back).
    LineList<1> writebacks;
  };

  /// Touch metadata line at `addr`; on miss, fill it (dirty if `dirty`).
  Access access(std::uint64_t addr, bool dirty);

  /// Probe without filling or LRU update.
  bool contains(std::uint64_t addr) const { return cache_.contains(addr); }

  /// Drop everything (e.g. between benchmark phases).
  std::vector<std::uint64_t> flush();

 private:
  SetAssocCache cache_;
  StatCounter& hits_;
  StatCounter& misses_;
};

}  // namespace secmem
