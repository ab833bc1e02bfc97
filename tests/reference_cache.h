// ReferenceCache — the per-line set-associative LRU model SetAssocCache
// is diffed against.
//
// SetAssocCache keeps its ways as parallel arrays (tag words with the
// valid bit folded in, LRU stamps, dirty flags), indexes power-of-two set
// counts with shifts, and touches a line with one stamp. This model keeps
// one struct per way and divides by the set count for every index (so
// any set count works). Its touch is a lookup and then a mark-dirty that
// stamps the line a second time: the relative LRU order is the same, so
// both must report identical hits, victims and dirty bits.
//
// Test-only: nothing in src/ links it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache.h"

namespace secmem {

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config);

  bool lookup(std::uint64_t addr);
  /// lookup(), then mark_dirty() on a hit when `dirty`.
  bool touch(std::uint64_t addr, bool dirty);
  bool mark_dirty(std::uint64_t addr);
  bool contains(std::uint64_t addr) const;
  std::optional<Eviction> fill(std::uint64_t addr, bool dirty);
  std::optional<Eviction> invalidate(std::uint64_t addr);
  /// Dirty lines in set-major, way-minor order.
  std::vector<Eviction> flush();
  std::size_t occupied_lines() const;

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // higher = more recently used
    bool valid = false;
    bool dirty = false;
  };

  Line* find(std::uint64_t addr);

  std::size_t line_bytes_;
  std::size_t sets_;
  unsigned ways_;
  std::uint64_t next_lru_ = 1;
  std::vector<Line> lines_;  // sets_ x ways_, row-major
};

}  // namespace secmem
