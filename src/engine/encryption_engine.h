// Memory-encryption engine — timing model (paper §2, §3, §5.2).
//
// Sits between the LLC and DRAM in the simulated system. Every L3 miss
// becomes a *verified read*: fetch ciphertext, fetch+verify the counter
// through the Bonsai tree (metadata cache shortcuts the walk at the first
// resident ancestor), generate the keystream, check the MAC. Every L3
// dirty writeback becomes an *authenticated write*: bump the counter
// (possibly triggering re-encode/reset/re-encryption), encrypt, MAC,
// write.
//
// The two knobs under evaluation:
//   - MacPlacement::kEccLane (paper §3): the MAC rides the x72 ECC bus —
//     zero extra DRAM transactions and zero metadata-cache pollution.
//   - MacPlacement::kSeparate: SGX/BMT-style 56-bit MACs in their own
//     region, fetched through DRAM and competing for the metadata cache.
//   - the CounterScheme decides counter-storage size and hence tree depth.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/stats.h"
#include "counters/counter_scheme.h"
#include "counters/reencryption_engine.h"
#include "dram/dram_system.h"
#include "engine/layout.h"
#include "tree/metadata_cache.h"

namespace secmem {

enum class MacPlacement : std::uint8_t {
  kEccLane,   ///< MAC stored in the ECC bits, read with the data (paper §3)
  kSeparate,  ///< MAC in a dedicated region, extra DRAM transaction
};

struct EngineConfig {
  MacPlacement mac_placement = MacPlacement::kEccLane;
  CacheConfig metadata_cache{32 * 1024, 8, 64};  ///< paper Table 1
  unsigned aes_latency = 40;      ///< keystream pipeline depth (cycles)
  unsigned mac_latency = 1;       ///< GF-multiply MAC check (paper §3.4)
  unsigned xor_latency = 1;       ///< pad XOR
  unsigned meta_hit_latency = 2;  ///< metadata-cache hit access time
  bool background_reencryption = true;  ///< §5.2: re-encryption does not
                                        ///< stall the cores
};

class EncryptionEngine {
 public:
  EncryptionEngine(const EngineConfig& config, CounterScheme& scheme,
                   const SecureRegionLayout& layout, DramSystem& dram,
                   StatRegistry& stats);

  /// Verified read of the block at data address `addr`, starting at cycle
  /// `now`; returns the cycle decrypted+verified data is available.
  std::uint64_t read_block(std::uint64_t now, std::uint64_t addr);

  /// Posted authenticated write (L3 writeback) of the block at `addr`.
  /// Consumes DRAM bandwidth and may trigger counter maintenance; does
  /// not produce a latency the core waits on.
  void write_block(std::uint64_t now, std::uint64_t addr);

  /// Flush dirty metadata (end-of-run accounting).
  void flush_metadata(std::uint64_t now);

  const CounterScheme& scheme() const noexcept { return scheme_; }
  const SecureRegionLayout& layout() const noexcept { return layout_; }
  ReencryptionEngine& reencryption() noexcept { return reenc_; }

 private:
  /// Cycle at which the verified counter for `block` is available.
  /// Metadata fetched on the way fills the metadata cache.
  std::uint64_t fetch_counter(std::uint64_t now, BlockIndex block);

  /// Bring the counter line on chip (verified) and mark it dirty.
  /// Tree updates propagate lazily: a dirty metadata line updates its
  /// parent only when it is written back (see post_metadata_writebacks).
  void touch_write_path(std::uint64_t now, BlockIndex block);

  /// Mark the parent of metadata line (level, index) dirty, fetching it
  /// if absent — the lazy update step for an evicted dirty child whose
  /// MAC must be re-recorded. The on-chip root level is free to update.
  void dirty_parent(std::uint64_t now, unsigned level, std::uint64_t index);

  /// Write back evicted dirty metadata lines and lazily propagate their
  /// MAC updates into their parents.
  void post_metadata_writebacks(std::uint64_t now,
                                std::span<const std::uint64_t> lines);

  EngineConfig config_;
  CounterScheme& scheme_;
  const SecureRegionLayout& layout_;
  DramSystem& dram_;
  // Cached registry counters (stable references, see StatRegistry): the
  // engine sits on the simulator's per-access path, so the name lookups
  // happen once at construction.
  StatCounter& reads_;
  StatCounter& writes_;
  StatCounter& counter_hits_;
  StatCounter& counter_misses_;
  StatCounter& counter_misses_write_;
  StatCounter& tree_node_fetches_;
  StatCounter& parent_fetches_;
  StatCounter& metadata_writebacks_;
  StatCounter& mac_hits_;
  StatCounter& mac_misses_;
  std::array<StatCounter*, 5> ctr_events_;  ///< indexed by CounterEvent
  MetadataCache metadata_cache_;
  ReencryptionEngine reenc_;
};

}  // namespace secmem
