// VerifiedTreeCache — the verified frontier of a Bonsai tree, cached in
// trusted on-chip storage (paper §2, §5: the 8 KB metadata cache the
// performance argument assumes; SecDDR and Sealer make the same bet).
//
// A bounded set-associative cache of (level, node) entries sitting
// between the engines and BonsaiTree:
//
//  - Read path (`verify`): entries are *verified on fill* and *trusted
//    while resident*, so an authentication walk stops at the first
//    cached ancestor instead of climbing to the on-chip root — O(depth)
//    CW-MACs become O(1) amortized on a hot working set. Counter lines
//    themselves (level 0) are cached too: a level-0 hit replaces the
//    whole walk with one 64-byte compare against the verified copy.
//
//  - Write path (`update`): a write-back dirty-node buffer. A leaf
//    update lands its new tag in the (cached) level-1 node and marks it
//    dirty; ancestor MACs are recomputed once per eviction/flush instead
//    of once per write, coalescing the root-ward propagation of hot
//    lines.
//
// Observational equivalence with the eager path is the design invariant:
// for any sequence of engine operations the post-`flush()` backing tree
// is bit-identical to what eager update_leaf calls would have produced
// (interior contents are a pure bottom-up function of the leaf lines),
// and every verify outcome matches eager verify_leaf. Write-path fills
// adopt the node's backing bytes *unverified* — exactly the bytes the
// eager read-modify-write would fold in — so a corrupted sibling slot is
// still detected one level down, when that sibling's own tag fails to
// match, just as in the eager path. The one intentional divergence:
// backing bytes corrupted *while the node is resident* are masked until
// the entry leaves the cache (on-chip copies are not attacker-reachable;
// the stale off-chip bytes are never consumed). Engines therefore wrap
// every untrusted-surface excursion in a flush barrier — see
// SecureMemory::UntrustedView::tree().
//
// Thread safety: the mutating operations (verify/update/flush/...) need
// exclusive ownership, statically enforced one level up: each engine's
// cache lives inside a SecureMemory that is itself SECMEM_GUARDED_BY the
// owning shard lock (engine/sharded_memory.h), so under clang
// -Wthread-safety an unlocked path to them does not compile. `probe()`
// is the one concurrent entry point: a const read-side verify that any
// number of shared-lock holders may run at once — it never fills and
// never reorders. Its only cache mutation is restamping an entry's
// recency, and only once the entry
// has fallen more than kProbeStaleStamps behind the writers' LRU clock
// (so residency decisions still see read-path recency once a writer
// takes over, while a probe of a fresh entry stores nothing). Metrics
// go to an optional MetricsCell (relaxed atomics), so the observability
// plane reads them without touching any lock. Recency stamps and metric
// counts follow the cell's constness rule (common/metrics.h): the
// non-const members own the cache exclusively and advance the LRU clock
// and their counters with single-writer stores; probe() never advances
// the clock and counts into its thread's stripe of the cell.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "tree/bonsai_tree.h"

namespace secmem {

struct TreeCacheConfig {
  /// Total capacity in KB of 64-byte entries; 0 disables the cache
  /// entirely (every call degrades to the eager BonsaiTree walk).
  unsigned capacity_kb = 8;
  unsigned ways = 8;
};

class VerifiedTreeCache {
 public:
  /// `tree` must outlive the cache. `metrics` (optional) receives the
  /// kTreeCache* counters; pass the engine's hot-path cell.
  VerifiedTreeCache(BonsaiTree& tree, const TreeCacheConfig& config,
                    MetricsCell* metrics = nullptr);

  VerifiedTreeCache(const VerifiedTreeCache&) = delete;
  VerifiedTreeCache& operator=(const VerifiedTreeCache&) = delete;

  bool enabled() const noexcept { return entry_count_ != 0; }

  /// Cache-accelerated BonsaiTree::verify_leaf — identical outcome for
  /// any state reachable through the engine API. The verdict must be
  /// consumed: ignoring it is accepting unauthenticated data.
  [[nodiscard]] bool verify(std::uint64_t line, BonsaiTree::LineView content);

  /// Read-side verify: the identical accept/reject verdict to verify(),
  /// but const — no fills, no path installation, no dirty-state changes;
  /// the only cache mutation is restamping stale recency. Safe to
  /// call from any number of threads holding the owning lock SHARED
  /// (engines' seqlock read fast path). `resident` reports whether a
  /// verified level-0 copy answered the probe (true) or the walk had to
  /// recompute MACs (false) — callers use a false to occasionally bounce
  /// the read to the exclusive path so verify() can warm the frontier.
  [[nodiscard]] bool probe(std::uint64_t line, BonsaiTree::LineView content,
                           bool& resident) const;

  /// Cache-accelerated BonsaiTree::update_leaf. `content` must already
  /// be the line's current backing bytes (engines serialize into counter
  /// storage first). Ancestor MAC recomputation is deferred: the tree's
  /// backing nodes go stale until eviction or flush().
  void update(std::uint64_t line, BonsaiTree::LineView content);

  /// Barrier: write every dirty node back (bottom-up, each dirty
  /// ancestor MAC recomputed once), then drop all residency. Afterwards
  /// the backing tree is bit-identical to the eager path's and nothing
  /// is trusted — required before save(), scrub sweeps, key rotation,
  /// and any untrusted-surface access.
  void flush();

  /// Drop everything *without* write-back — for when the backing tree
  /// was just rebuilt from scratch (restore, key rotation) and cached
  /// state is meaningless.
  void invalidate_all() noexcept;

  /// Occupied entries (tests/benches).
  std::size_t occupied() const noexcept;

 private:
  struct Entry {
    std::uint64_t key = 0;  ///< (level << 48) | node
    /// Higher = more recently used. Atomic (relaxed) because probe()
    /// restamps stale recency from shared-lock readers while no writer
    /// can run; every other field is written under the owner's exclusive
    /// lock only. Mutable: recency is metadata, not cached content —
    /// restamping it is the one mutation the const read path performs.
    mutable std::atomic<std::uint64_t> lru{0};
    bool valid = false;
    bool dirty = false;  ///< ancestor MACs (and possibly backing) stale
    std::array<std::uint8_t, BonsaiTree::kLineBytes> content;
  };

  static std::uint64_t key_of(unsigned level, std::uint64_t node) noexcept {
    return (static_cast<std::uint64_t>(level) << 48) | node;
  }
  static unsigned level_of(std::uint64_t key) noexcept {
    return static_cast<unsigned>(key >> 48);
  }
  static std::uint64_t node_of(std::uint64_t key) noexcept {
    return key & ((1ULL << 48) - 1);
  }

  std::size_t set_of(std::uint64_t key) const noexcept;
  const Entry* find(unsigned level, std::uint64_t node) const noexcept;
  Entry* find(unsigned level, std::uint64_t node) noexcept;
  /// How far (in writer stamps) a probed entry may lag before the
  /// read-side touch restamps it: small, so read-hot entries still look
  /// recent to the writers' victim choice (mt_mixed keeps
  /// tree.probe_hit_ratio at 0.9998 with 8).
  static constexpr std::uint64_t kProbeStaleStamps = 8;
  /// Recency and metrics, chosen by constness like MetricsCell::add: the
  /// non-const forms run under the owner's exclusive lock (no lock
  /// prefix), the const ones from probe()'s concurrent readers.
  void touch(const Entry& e) noexcept {
    const std::uint64_t stamp = next_lru_.load(std::memory_order_relaxed);
    next_lru_.store(stamp + 1, std::memory_order_relaxed);
    e.lru.store(stamp, std::memory_order_relaxed);
  }
  /// The read-side touch advances no clock: it restamps the entry with
  /// the writers' current stamp, and only once the entry has fallen more
  /// than kProbeStaleStamps behind it, so a probe of a fresh entry
  /// writes nothing.
  void touch(const Entry& e) const noexcept {
    const std::uint64_t now = next_lru_.load(std::memory_order_relaxed);
    if (now - e.lru.load(std::memory_order_relaxed) > kProbeStaleStamps)
      e.lru.store(now, std::memory_order_relaxed);
  }
  void count(MetricId id) noexcept {
    if (metrics_) metrics_->add(id);
  }
  void count(MetricId id) const noexcept {
    if (metrics_) std::as_const(*metrics_).add(id);
  }
  std::span<Entry> entries() noexcept { return {entries_.get(), entry_count_}; }
  std::span<const Entry> entries() const noexcept {
    return {entries_.get(), entry_count_};
  }

  /// Install (level, node) with `content`, evicting (and writing back, if
  /// dirty) the set's LRU victim. Must not already be present.
  void install(unsigned level, std::uint64_t node, const std::uint8_t* content,
               bool dirty);

  /// Write a dirty entry's content to the backing store and propagate its
  /// recomputed MAC root-ward: cached ancestors absorb the new tag (and
  /// turn dirty); uncached levels are eagerly read-modify-written, exactly
  /// like BonsaiTree::update_leaf. Never fills, so eviction cannot recurse.
  void write_back(const Entry& e);

  BonsaiTree& tree_;
  MetricsCell* metrics_;
  std::size_t sets_ = 0;
  unsigned ways_ = 0;
  /// The recency clock, advanced only by the exclusive members; atomic
  /// because probe() reads it from concurrent shared-lock readers.
  std::atomic<std::uint64_t> next_lru_{1};
  /// sets_ x ways_, row-major. A raw array (not std::vector): entries
  /// hold atomics and are neither movable nor copyable.
  std::unique_ptr<Entry[]> entries_;
  std::size_t entry_count_ = 0;
  /// Scratch for verify(): interior nodes the walk authenticated, to be
  /// installed on success.
  std::vector<std::pair<unsigned, std::uint64_t>> path_;
};

}  // namespace secmem
