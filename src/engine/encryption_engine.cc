#include "engine/encryption_engine.h"

#include <algorithm>

namespace secmem {

EncryptionEngine::EncryptionEngine(const EngineConfig& config,
                                   CounterScheme& scheme,
                                   const SecureRegionLayout& layout,
                                   DramSystem& dram, StatRegistry& stats)
    : config_(config),
      scheme_(scheme),
      layout_(layout),
      dram_(dram),
      reads_(stats.counter("engine.reads")),
      writes_(stats.counter("engine.writes")),
      counter_hits_(stats.counter("engine.counter_hits")),
      counter_misses_(stats.counter("engine.counter_misses")),
      counter_misses_write_(stats.counter("engine.counter_misses_write")),
      tree_node_fetches_(stats.counter("engine.tree_node_fetches")),
      parent_fetches_(stats.counter("engine.parent_fetches")),
      metadata_writebacks_(stats.counter("engine.metadata_writebacks")),
      mac_hits_(stats.counter("engine.mac_hits")),
      mac_misses_(stats.counter("engine.mac_misses")),
      metadata_cache_(config.metadata_cache, stats),
      reenc_(dram, stats) {
  for (std::size_t e = 0; e < ctr_events_.size(); ++e) {
    ctr_events_[e] = &stats.counter(
        std::string("engine.ctr_event.") +
        counter_event_name(static_cast<CounterEvent>(e)));
  }
}

void EncryptionEngine::dirty_parent(std::uint64_t now, unsigned level,
                                    std::uint64_t index) {
  const BonsaiGeometry& tree = layout_.tree();
  const unsigned parent_level = level + 1;
  if (parent_level + 1 >= tree.total_levels()) return;  // root: on-chip
  const std::uint64_t parent_addr = layout_.tree_node_addr(
      parent_level, BonsaiGeometry::parent_of(index));
  auto access = metadata_cache_.access(parent_addr, /*dirty=*/true);
  post_metadata_writebacks(now, access.writebacks);
  if (!access.hit) {
    dram_.access(now, parent_addr, /*is_write=*/false);
    parent_fetches_.inc();
  }
}

void EncryptionEngine::post_metadata_writebacks(
    std::uint64_t now, std::span<const std::uint64_t> lines) {
  for (const std::uint64_t addr : lines) {
    dram_.access(now, addr, /*is_write=*/true);
    metadata_writebacks_.inc();
    // A dirty counter line / tree node carries fresh child MACs: its own
    // MAC changes, so its parent must absorb the update (lazy
    // propagation; MAC-region lines have no tree above them).
    const auto located = layout_.locate(addr);
    if (located.region == SecureRegionLayout::Region::kCounter ||
        located.region == SecureRegionLayout::Region::kTree) {
      dirty_parent(now, located.level, located.index);
    }
  }
}

std::uint64_t EncryptionEngine::fetch_counter(std::uint64_t now,
                                              BlockIndex block) {
  const std::uint64_t line = scheme_.storage_line_of(block);
  const std::uint64_t line_addr = layout_.counter_line_addr(line);

  auto counter_access = metadata_cache_.access(line_addr, /*dirty=*/false);
  post_metadata_writebacks(now, counter_access.writebacks);
  if (counter_access.hit) {
    counter_hits_.inc();
    return now + config_.meta_hit_latency + scheme_.decode_latency_cycles();
  }
  counter_misses_.inc();

  // Counter miss: fetch the line and every uncached ancestor up to the
  // first resident (already-verified) tree node or the on-chip roots.
  // All node addresses are known a priori, so the fetches issue in
  // parallel; verification MACs then chain bottom-up.
  std::uint64_t latest = dram_.access(now, line_addr, /*is_write=*/false);
  unsigned fetched_levels = 1;

  const BonsaiGeometry& tree = layout_.tree();
  std::uint64_t node = line;
  for (unsigned lvl = 1; lvl + 1 < tree.total_levels(); ++lvl) {
    node = BonsaiGeometry::parent_of(node);
    const std::uint64_t node_addr = layout_.tree_node_addr(lvl, node);
    auto access = metadata_cache_.access(node_addr, /*dirty=*/false);
    post_metadata_writebacks(now, access.writebacks);
    if (access.hit) break;  // resident node is verified; walk stops here
    latest = std::max(latest, dram_.access(now, node_addr, false));
    ++fetched_levels;
  }
  tree_node_fetches_.inc(fetched_levels - 1);

  return latest + fetched_levels * config_.mac_latency +
         config_.meta_hit_latency + scheme_.decode_latency_cycles();
}

std::uint64_t EncryptionEngine::read_block(std::uint64_t now,
                                           std::uint64_t addr) {
  reads_.inc();
  const BlockIndex block = addr / 64;

  // Ciphertext fetch; with x72 DIMMs the ECC/MAC lane arrives in the same
  // burst.
  const std::uint64_t t_data = dram_.access(now, addr, /*is_write=*/false);

  // Counter fetch + verification (may walk the tree).
  const std::uint64_t t_counter = fetch_counter(now, block);

  // Keystream generation starts as soon as the counter is known and
  // overlaps the data fetch (paper §2.1 / counter-mode's key advantage).
  const std::uint64_t t_keystream = t_counter + config_.aes_latency;

  // MAC availability depends on placement — this is the §3 experiment.
  std::uint64_t t_mac;
  if (config_.mac_placement == MacPlacement::kEccLane) {
    t_mac = t_data;  // same burst, no extra transaction, no cache slot
  } else {
    const std::uint64_t mac_addr = layout_.mac_line_addr(block);
    auto access = metadata_cache_.access(mac_addr, /*dirty=*/false);
    post_metadata_writebacks(now, access.writebacks);
    if (access.hit) {
      t_mac = now + config_.meta_hit_latency;
      mac_hits_.inc();
    } else {
      t_mac = dram_.access(now, mac_addr, /*is_write=*/false);
      mac_misses_.inc();
    }
  }

  // Decrypt (XOR) once data + keystream are in; verify once the MAC is.
  const std::uint64_t t_plain =
      std::max(t_data, t_keystream) + config_.xor_latency;
  return std::max(t_plain, t_mac) + config_.mac_latency;
}

void EncryptionEngine::touch_write_path(std::uint64_t now, BlockIndex block) {
  const std::uint64_t line = scheme_.storage_line_of(block);
  const std::uint64_t line_addr = layout_.counter_line_addr(line);

  // The counter line must be resident (and verified) to be updated:
  // read-modify-write. A miss costs a verified fetch like a read — walk
  // up to the first cached ancestor — but it is off the core's critical
  // path, so only the bandwidth is charged. The ancestor path is NOT
  // dirtied here: the leaf's new MAC reaches its parent lazily, when the
  // dirty line is eventually evicted (post_metadata_writebacks).
  auto counter_access = metadata_cache_.access(line_addr, /*dirty=*/true);
  post_metadata_writebacks(now, counter_access.writebacks);
  if (counter_access.hit) return;

  dram_.access(now, line_addr, /*is_write=*/false);
  counter_misses_write_.inc();
  const BonsaiGeometry& tree = layout_.tree();
  std::uint64_t node = line;
  for (unsigned lvl = 1; lvl + 1 < tree.total_levels(); ++lvl) {
    node = BonsaiGeometry::parent_of(node);
    const std::uint64_t node_addr = layout_.tree_node_addr(lvl, node);
    auto access = metadata_cache_.access(node_addr, /*dirty=*/false);
    post_metadata_writebacks(now, access.writebacks);
    if (access.hit) break;  // verified against a resident ancestor
    dram_.access(now, node_addr, /*is_write=*/false);
  }
}

void EncryptionEngine::write_block(std::uint64_t now, std::uint64_t addr) {
  writes_.inc();
  const BlockIndex block = addr / 64;

  const WriteOutcome outcome = scheme_.on_write(block);
  ctr_events_[static_cast<std::size_t>(outcome.event)]->inc();

  touch_write_path(now, block);

  // Encrypt + MAC are pipelined off the critical path; the data write
  // lands on DRAM (ECC/MAC lane travels with it on x72 DIMMs).
  dram_.access(now, addr, /*is_write=*/true);

  if (config_.mac_placement == MacPlacement::kSeparate) {
    const std::uint64_t mac_addr = layout_.mac_line_addr(block);
    auto access = metadata_cache_.access(mac_addr, /*dirty=*/true);
    post_metadata_writebacks(now, access.writebacks);
    if (!access.hit) dram_.access(now, mac_addr, /*is_write=*/false);
  }

  if (outcome.event == CounterEvent::kReencrypt) {
    const std::uint64_t group_base =
        outcome.group * scheme_.blocks_per_group() * 64ULL;
    reenc_.enqueue({group_base, scheme_.blocks_per_group()}, now);
    if (config_.background_reencryption) {
      // Drain immediately in the background: the traffic occupies banks
      // and buses (visible to subsequent core accesses) but the core
      // does not wait for it.
      reenc_.drain(now);
    }
  }
}

void EncryptionEngine::flush_metadata(std::uint64_t now) {
  post_metadata_writebacks(now, metadata_cache_.flush());
  if (!config_.background_reencryption) reenc_.drain(now);
}

}  // namespace secmem
