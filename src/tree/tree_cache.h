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
//    Fills are admission-controlled per node: an authenticated path node
//    takes a free way, or evicts only when its key was declined recently
//    (a small ghost array of declined keys), so a uniform stream of
//    first-touch lines cannot wash out the re-used frontier.
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
};

class VerifiedTreeCache {
 public:
  /// `tree` must outlive the cache. `metrics` (optional) receives the
  /// kTreeCache* counters; pass the engine's hot-path cell.
  VerifiedTreeCache(BonsaiTree& tree, const TreeCacheConfig& config,
                    MetricsCell* metrics = nullptr);

  VerifiedTreeCache(const VerifiedTreeCache&) = delete;
  VerifiedTreeCache& operator=(const VerifiedTreeCache&) = delete;

  bool enabled() const noexcept { return sets_ != 0; }

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
  /// The associativity. Ways are addressed by slot index
  /// (set * kWays + way) into parallel arrays, so a set scan reads one
  /// cache line of tags instead of every way's 64-byte payload, in a
  /// fixed-length loop: the walk's per-level lookups and verify()'s
  /// admission check sit on the uniform-read miss path, where scanning
  /// whole entries cost more than the MACs the walk saves.
  static constexpr unsigned kWays = 8;
  static constexpr std::size_t kNone = ~std::size_t{0};

  static std::uint64_t key_of(unsigned level, std::uint64_t node) noexcept {
    return (static_cast<std::uint64_t>(level) << 48) | node;
  }
  static unsigned level_of(std::uint64_t key) noexcept {
    return static_cast<unsigned>(key >> 48);
  }
  static std::uint64_t node_of(std::uint64_t key) noexcept {
    return key & ((1ULL << 48) - 1);
  }

  std::uint64_t& way_tag(std::size_t i) noexcept {
    return tag_lines_[i / kWays].tags[i % kWays];
  }
  std::uint64_t way_tag(std::size_t i) const noexcept {
    return tag_lines_[i / kWays].tags[i % kWays];
  }
  std::atomic<std::uint64_t>& lru(std::size_t i) const noexcept {
    return lru_lines_[i / kWays].stamps[i % kWays];
  }
  bool valid(std::size_t i) const noexcept { return way_tag(i) != 0; }
  std::uint64_t key_at(std::size_t i) const noexcept { return way_tag(i) - 1; }
  std::uint8_t* content(std::size_t i) noexcept { return lines_[i].bytes; }
  const std::uint8_t* content(std::size_t i) const noexcept {
    return lines_[i].bytes;
  }

  /// Fibonacci multiplicative hash; (level, node) keys are
  /// near-sequential, this spreads them across sets.
  std::size_t set_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
           (sets_ - 1);
  }
  /// One scan of the set `key` maps to.
  struct Lookup {
    std::uint64_t key;
    std::size_t row;   ///< the set's first slot
    std::size_t hit;   ///< the way holding `key`, or kNone
    std::size_t free;  ///< an empty way of the set, or kNone
  };
  /// Every way is compared and the matches selected, with no early exit:
  /// on a uniform stream the way an ancestor hits at is random, so an
  /// exit on it mispredicts. Which empty way a fill takes is immaterial,
  /// so the last one will do.
  Lookup lookup(std::uint64_t key) const noexcept {
    const std::size_t set = set_of(key);
    const std::uint64_t* tags = tag_lines_[set].tags;
    unsigned hit = kWays, empty = kWays;
    for (unsigned w = 0; w < kWays; ++w) {
      hit = tags[w] == key + 1 ? w : hit;
      empty = tags[w] == 0 ? w : empty;
    }
    const std::size_t row = set * kWays;
    return {key, row, hit < kWays ? row + hit : kNone,
            empty < kWays ? row + empty : kNone};
  }
  /// How far (in writer stamps) a probed entry may lag before the
  /// read-side touch restamps it: small, so read-hot entries still look
  /// recent to the writers' victim choice (mt_mixed keeps
  /// tree.probe_hit_ratio at 0.9998 with 8).
  static constexpr std::uint64_t kProbeStaleStamps = 8;
  /// Recency and metrics, chosen by constness like MetricsCell::add: the
  /// non-const forms run under the owner's exclusive lock (no lock
  /// prefix), the const ones from probe()'s concurrent readers.
  void touch(std::size_t i) noexcept {
    const std::uint64_t stamp = next_lru_.load(std::memory_order_relaxed);
    next_lru_.store(stamp + 1, std::memory_order_relaxed);
    lru(i).store(stamp, std::memory_order_relaxed);
  }
  /// The read-side touch advances no clock: it restamps the entry with
  /// the writers' current stamp, and only once the entry has fallen more
  /// than kProbeStaleStamps behind it, so a probe of a fresh entry
  /// writes nothing.
  void touch(std::size_t i) const noexcept {
    const std::uint64_t now = next_lru_.load(std::memory_order_relaxed);
    if (now - lru(i).load(std::memory_order_relaxed) > kProbeStaleStamps)
      lru(i).store(now, std::memory_order_relaxed);
  }
  void count(MetricId id) noexcept {
    if (metrics_) metrics_->add(id);
  }
  void count(MetricId id) const noexcept {
    if (metrics_) std::as_const(*metrics_).add(id);
  }

  /// The least recently used way of the (full) set starting at `row`.
  std::size_t lru_way(std::size_t row) const noexcept;
  /// Fill way `i` with `key` and `bytes`, writing back a dirty occupant
  /// first. `key` must not already be present.
  void fill(std::size_t i, std::uint64_t key, const std::uint8_t* bytes,
            bool dirty);
  /// Install (level, node) with `bytes`, evicting (and writing back, if
  /// dirty) the set's LRU victim. Must not already be present.
  void install(unsigned level, std::uint64_t node, const std::uint8_t* bytes,
               bool dirty) {
    const Lookup at = lookup(key_of(level, node));
    fill(at.free != kNone ? at.free : lru_way(at.row), at.key, bytes, dirty);
  }
  /// verify()'s fill of a node its walk just authenticated, from
  /// verify()'s lookup `at` of it (which missed): taken when the set has a
  /// free way or the key sits in the ghost array (declined once within
  /// the window); otherwise declined, and the key recorded.
  void admit(Lookup at, const std::uint8_t* bytes);

  /// Write dirty way `i`'s content to the backing store and propagate its
  /// recomputed MAC root-ward: cached ancestors absorb the new tag (and
  /// turn dirty); uncached levels are eagerly read-modify-written, exactly
  /// like BonsaiTree::update_leaf. Never fills, so eviction cannot recurse.
  void write_back(std::size_t i);

  BonsaiTree& tree_;
  MetricsCell* metrics_;
  std::size_t sets_ = 0;
  /// The recency clock, advanced only by the exclusive members; atomic
  /// because probe() reads it from concurrent shared-lock readers.
  std::atomic<std::uint64_t> next_lru_{1};
  /// Per slot, one row of kWays per set, each array 64-byte aligned so
  /// a set's tags are one cache line:
  ///  - way_tag(): key + 1 of the resident node, 0 = empty;
  ///  - lru(): recency stamp, higher = more recent. Atomic (relaxed)
  ///    because probe() restamps stale recency from shared-lock readers
  ///    while no writer can run; every other array is written under the
  ///    owner's exclusive lock only. Recency is metadata, not cached
  ///    content — restamping it is the one mutation the const read path
  ///    performs;
  ///  - dirty_: ancestor MACs (and possibly backing) stale;
  ///  - lines_: the verified node bytes.
  struct alignas(64) Line {
    std::uint8_t bytes[BonsaiTree::kLineBytes];
  };
  struct alignas(64) TagLine {
    std::uint64_t tags[kWays];
  };
  struct alignas(64) LruLine {
    std::atomic<std::uint64_t> stamps[kWays];
  };
  std::unique_ptr<TagLine[]> tag_lines_;
  std::unique_ptr<LruLine[]> lru_lines_;
  std::unique_ptr<bool[]> dirty_;
  std::unique_ptr<Line[]> lines_;
  /// Scratch for verify(): the lookups of the interior nodes the walk
  /// authenticated, to be offered for admission on success.
  std::vector<Lookup> path_;
  /// Admission filter: recently declined (level, node) keys, direct
  /// mapped, each slot holding key + 1 (0 = empty). Advisory only: a hit
  /// admits a node its walk has just authenticated, and nothing read from
  /// here is ever trusted.
  static constexpr std::size_t kGhostSlots = 256;
  std::array<std::uint64_t, kGhostSlots> ghost_{};
  static std::size_t ghost_slot(std::uint64_t key) noexcept {
    static_assert(kGhostSlots == 256, "the hash keeps the top 8 bits");
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 56);
  }
};

}  // namespace secmem
