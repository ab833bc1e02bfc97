// Three-level cache hierarchy model: per-core L1 and L2, shared L3
// (paper Table 1: L1 32KB/8-way, L2 256KB/8-way, L3 10MB/16-way shared).
//
// Write-back, write-allocate at every level; non-inclusive (a line may
// live at any subset of levels). Dirty evictions cascade toward memory;
// dirty L3 victims surface to the caller as DRAM writebacks — these are
// exactly the events that drive counter increments and re-encryption in
// the memory-encryption engine.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.h"
#include "common/stats.h"

namespace secmem {

struct HierarchyConfig {
  unsigned cores = 4;
  CacheConfig l1{32 * 1024, 8, 64};
  CacheConfig l2{256 * 1024, 8, 64};
  CacheConfig l3{10 * 1024 * 1024, 16, 64};
  unsigned l1_latency = 4;    ///< cycles, load-to-use on L1 hit
  unsigned l2_latency = 12;   ///< cycles on L2 hit
  unsigned l3_latency = 38;   ///< cycles on L3 hit
};

/// Which level served an access.
enum class ServedBy : std::uint8_t { kL1, kL2, kL3, kMemory };

struct AccessOutcome {
  ServedBy served_by;
  unsigned hit_latency;  ///< cycles to the serving level (DRAM time excluded)
  /// Dirty 64-byte lines evicted from L3 by this access; the caller must
  /// write them back to (encrypted) DRAM. At most two: one when a miss
  /// fills L3, one when the L1 victim's cascade through L2 reaches L3.
  LineList<2> writebacks;
};

class CacheHierarchy {
 public:
  CacheHierarchy(const HierarchyConfig& config, StatRegistry& stats);

  /// Simulate a load/store by core `core` to byte address `addr`.
  AccessOutcome access(unsigned core, std::uint64_t addr, bool is_write);

  /// Write back every dirty line (end-of-run accounting).
  std::vector<std::uint64_t> flush_all();

  const HierarchyConfig& config() const noexcept { return config_; }

 private:
  /// Insert a line into L2/L3, cascading dirty victims; appends resulting
  /// DRAM writebacks to `writebacks`.
  template <class Writebacks>
  void fill_l2(unsigned core, std::uint64_t line, bool dirty,
               Writebacks& writebacks);
  template <class Writebacks>
  void fill_l3(std::uint64_t line, bool dirty, Writebacks& writebacks);

  HierarchyConfig config_;
  std::vector<SetAssocCache> l1_;  // one per core
  std::vector<SetAssocCache> l2_;  // one per core
  SetAssocCache l3_;
  // Cached registry counters (stable references, see StatRegistry) —
  // the map lookups happen once at construction, not per access.
  struct LevelCounters {
    StatCounter& hits;
    StatCounter& misses;
  };
  LevelCounters l1_stats_;
  LevelCounters l2_stats_;
  LevelCounters l3_stats_;
};

}  // namespace secmem
