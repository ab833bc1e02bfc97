// ShardedSecureMemory — a concurrent, horizontally-partitioned secure
// region.
//
// This is the one thread-safe engine. It partitions the region across
// N independent SecureMemory shards — each with its own working keys,
// counter scheme, Bonsai tree, and backing store. Operations on different
// shards proceed fully in parallel; the cryptographic work (AES-CTR,
// Carter-Wegman, tree walks) dominates the lock cost, so read throughput
// scales with min(threads, shards). One shard is the single-lock
// configuration: every writer serializes on one SeqLock while verified
// reads still share it.
//
// Locking discipline — machine-checked under clang -Wthread-safety:
// every shard is a Shard struct carrying its own cache-line-aligned
// secmem::SeqLock (a reader/writer mutex publishing a generation
// counter, common/thread_annotations.h), and the shard's engine is
// SECMEM_GUARDED_BY that lock, so touching an engine without holding it
// is a *build error*. Writers and every mutating maintenance operation
// take the exclusive side (SeqWriteLock); verified reads take the shared
// side (SeqReadLock) and run through SecureMemory's const
// read_block_shared() fast path, so a read-mostly workload is limited by
// crypto throughput, not lock convoys — with N readers on one hot shard
// the old per-shard std::mutex serialized them all. Cross-shard paths
// acquire runtime-selected exclusive lock sets in fixed ascending table
// order via lock_in_order (engine/lock_table.h) — except read_bytes,
// which first attempts an optimistic generation-validated snapshot:
// capture each involved shard's generation, read block by block under
// short shared locks, and accept iff every generation is unchanged
// (equal and even), retrying through the exclusive path otherwise. The
// runtime-lock-set and optimistic functions are beyond static analysis
// and carry SECMEM_NO_THREAD_SAFETY_ANALYSIS plus TSan coverage.
//
// Routing granularity is the *block-group* (4 KB for the paper's delta
// schemes): groups are striped round-robin across shards. A group is the
// unit of delta-counter locality — one reference counter, one
// re-encryption blast radius, one counter-storage line — so keeping each
// group whole inside one shard preserves the paper's §4 dynamics exactly;
// only the assignment of groups to trees changes. Each shard derives its
// own master secret from the region key, so identical plaintexts in
// different shards never share (key, addr, counter) nonces.
//
// Each shard also carries its own verified-frontier tree cache
// (config.tree_cache_kb per shard, see tree/tree_cache.h), mutated only
// under that shard's lock — per-shard caches fall out of per-shard
// SecureMemory instances with no extra synchronization.
//
// Metrics: each shard records into its own cache-line-aligned MetricsCell
// (relaxed atomics), and the region keeps one more cell for byte-level
// operations. stats()/publish_metrics() aggregate the cells without
// taking any shard lock, so observability never stalls the datapath.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "engine/lock_table.h"
#include "engine/secure_memory.h"
#include "engine/secure_memory_like.h"

namespace secmem {

/// Wall-time split of a staged restore, for benchmarks: seconds spent
/// parsing/validating (staging — the parallelizable half) versus
/// adopting the staged state (commit). Filled by restore_timed().
struct SnapshotTiming {
  double stage_s = 0.0;
  double commit_s = 0.0;
};

class ShardedSecureMemory : public SecureMemoryLike {
 public:
  /// `config.size_bytes` is the TOTAL region size; it must divide evenly
  /// into `num_shards` shards of a whole number of routing granules
  /// (std::invalid_argument otherwise).
  ShardedSecureMemory(const SecureMemoryConfig& config, unsigned num_shards);

  unsigned num_shards() const noexcept { return num_shards_; }
  std::uint64_t size_bytes() const noexcept override {
    return config_.size_bytes;
  }
  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }
  /// Blocks per routing granule (= one block-group, ≥ one counter line).
  unsigned granule_blocks() const noexcept { return granule_blocks_; }
  /// Which shard owns a (global) block.
  unsigned shard_of_block(std::uint64_t block) const noexcept {
    return static_cast<unsigned>((block / granule_blocks_) % num_shards_);
  }

  /// ------------------------------------------------------------------
  /// Single-block operations (lock the owning shard only).
  /// ------------------------------------------------------------------
  [[nodiscard]] Status write_block(std::uint64_t block,
                                   const DataBlock& plaintext) override;
  ReadResult read_block(std::uint64_t block) override;
  ScrubStatus scrub_block(std::uint64_t block, bool deep = false) override;

  /// ------------------------------------------------------------------
  /// Batch I/O — sorts requests by shard, acquires each shard lock once
  /// per batch, and runs each shard's run of requests through the
  /// shard's own batch routine (batched crypto kernels, deduplicated
  /// tree verifications). Results come back in request order. Requests
  /// to the same shard are applied atomically per shard; the batch as a
  /// whole is NOT a cross-shard snapshot.
  /// ------------------------------------------------------------------
  using BlockWrite = secmem::BlockWrite;
  [[nodiscard]] std::vector<ReadResult> read_blocks(
      std::span<const std::uint64_t> blocks) override;
  [[nodiscard]] Status write_blocks(std::span<const BlockWrite> writes)
      override;

  /// ------------------------------------------------------------------
  /// Byte-level API. Ranges are read/written atomically even across
  /// shard boundaries. `write_bytes` exclusively locks every shard the
  /// range touches (in table order) and keeps SecureMemory's
  /// all-or-nothing guarantee: edge blocks are pre-verified before any
  /// shard is mutated. `read_bytes` first tries the optimistic
  /// generation-validated snapshot (short shared locks, no writer
  /// exclusion — see the file comment); equal generations before and
  /// after prove the range was read at one consistent instant. Torn
  /// snapshots retry, then fall back to the exclusive protocol, with
  /// read accounting deferred until a pass commits so retries never
  /// double-count.
  /// ------------------------------------------------------------------
  Status write_bytes(std::uint64_t addr,
                     std::span<const std::uint8_t> bytes) override;
  Status read_bytes(std::uint64_t addr,
                    std::span<std::uint8_t> out) override;

  /// ------------------------------------------------------------------
  /// Region-wide maintenance, shard-parallel on a bounded worker pool
  /// (min(shards, hardware_concurrency) threads sharing an atomic shard
  /// cursor — a 64-shard region on a 4-core box used to spawn 64
  /// threads). Unswept shards keep serving their callers.
  /// ------------------------------------------------------------------
  ScrubReport scrub_all(bool deep = false) override;

  /// Re-key every shard (in parallel) under secrets derived from
  /// `new_master`. All-or-nothing across shards: if any shard fails
  /// verification, already-rotated shards are rotated back to the old
  /// master and false is returned with the region's contents intact.
  ///
  /// The rollback itself re-reads freshly re-encrypted data, so it
  /// *normally* cannot fail — but a fault or active tamper landing in
  /// the rollback window can still make a shard refuse, leaving the
  /// region split-keyed (some shards under the old master, some under
  /// the new). That outcome is checked, not assumed: each failed
  /// rollback records kRotateRollbackFailures plus a key-rotation trace
  /// event against the shard, and the region is *poisoned* — see
  /// poisoned() — so split-keyed state can never be silently served.
  [[nodiscard]] bool rotate_master_key(std::uint64_t new_master) override;

  /// True after a key-rotation rollback failure left shards under
  /// different masters. While poisoned, every operation reports
  /// Status::kRegionPoisoned — verified reads fail closed rather than
  /// decrypt half the region with retired keys, byte I/O and every
  /// mutation path (write_block/write_blocks/write_bytes/save) return
  /// the status without touching any shard, scrubs report
  /// ScrubStatus::kRegionPoisoned, and rotate_master_key refuses. No
  /// path throws on poisoning. The only way out is a successful
  /// restore() of a known-good image, which clears the flag.
  bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Test-only fault injection: invoked (with no shard locks held)
  /// between a failed forward rotation pass and the rollback pass — the
  /// window in which tests tamper a rotated shard so its rollback
  /// verification fails. Never used in production paths.
  void set_rotate_rollback_fault_hook(std::function<void()> hook) {
    rotate_rollback_fault_hook_ = std::move(hook);
  }

  /// Aggregated operational statistics across all shards — lock-free:
  /// sums the shards' relaxed-atomic cells without touching the locks.
  EngineStats stats() const noexcept override;
  void reset_stats() noexcept override;

  /// Publishes the region aggregate under `prefix` plus a per-shard
  /// breakdown under "<prefix>.shard<N>".
  void publish_metrics(StatRegistry& registry,
                       const std::string& prefix = "engine") const override;

  /// The shared ring receives every shard's events, tagged with the shard
  /// index; region-level byte operations record under the owning shard of
  /// their first block.
  void attach_trace(TraceRing* ring) override;

  /// Persistence: a shard-count-tagged container of per-shard images.
  /// restore() is all-or-nothing across shards: every shard's image is
  /// staged and fully validated (sealed-root check included) while all
  /// shard locks are held, and only then are the shards committed —
  /// mirroring write_bytes' pre-verify-then-mutate protocol. A false
  /// return means the region is EXACTLY as it was, including a poisoned
  /// flag; a true return restores every shard and clears poisoning.
  ///
  /// The container is the 24-byte header (magic, shard count, granule
  /// blocks) followed by each shard's SecureMemory::save image in shard
  /// order. Both directions stream straight through the caller's
  /// stream, with no whole-image staging copy: save() writes each shard
  /// under that shard's lock, so shards not yet reached keep serving;
  /// restore() stages each shard off the stream into that engine's
  /// recycled staging storage, then commits the shards in parallel on
  /// the maintenance worker pool (see scrub_all). A save that fails
  /// mid-stream breaks every shard's delta chain.
  [[nodiscard]] Status save(std::ostream& out) override;
  [[nodiscard]] bool restore(std::istream& in) override;

  /// Delta persistence: a shard-count-tagged container of per-shard
  /// delta images (see SecureMemory::save_delta). Unlike the full
  /// container, per-shard payloads are variable-sized — a shard with a
  /// hot working set emits a small COPY/ADD delta while a shard with a
  /// broken chain (fresh, just rotated) falls back to its full image —
  /// so a length table sits between the header and the payloads, and
  /// every shard serializes into a private buffer, filled in parallel
  /// on the maintenance worker pool.
  ///
  /// restore_delta() accepts BOTH container kinds, dispatching on the
  /// magic: a full container (save()'s output) takes the full-restore
  /// path; a delta container bulk-reads the payload once, slices it by
  /// the length table, and stages every shard's slice — itself sniffed
  /// as a full image or a delta on ITS magic — with all shard locks
  /// held, then commits. Same all-or-nothing contract as restore(): any
  /// staging failure (container damage, one tampered shard, one stale
  /// base seal) returns false with the region EXACTLY as it was. The
  /// one exception mirrors SecureMemory::commit_delta's
  /// defense-in-depth verdict: a post-apply root mismatch on a shard
  /// (cryptographically negligible) wipes that shard and POISONS the
  /// region rather than serve a half-applied state.
  [[nodiscard]] Status save_delta(std::ostream& out) override;
  [[nodiscard]] bool restore_delta(std::istream& in) override;

  /// restore_delta() plus a stage/commit wall-time split for the
  /// snapshot benchmark. Accepts both container kinds.
  [[nodiscard]] bool restore_timed(std::istream& in, SnapshotTiming& timing);

  /// Total dirty delta-granules across shards — a relaxed-atomic
  /// snapshot, lock-free like stats().
  std::uint64_t dirty_granules() const noexcept;

  // Re-expose the base class's std::byte-span / buffer overloads.
  using SecureMemoryLike::read_bytes;
  using SecureMemoryLike::restore;
  using SecureMemoryLike::restore_delta;
  using SecureMemoryLike::save;
  using SecureMemoryLike::save_delta;
  using SecureMemoryLike::write_bytes;

  /// Run `fn(SecureMemory&)` against one shard under its exclusive lock
  /// — for tests and attacker simulation (the untrusted view is per
  /// shard). Bumps the shard's generation like any writer, so optimistic
  /// readers never consume a half-tampered snapshot.
  template <typename Fn>
  auto with_shard_exclusive(unsigned shard, Fn&& fn) {
    Shard& s = shards_[shard];
    const SeqWriteLock lock(s.mu);
    return std::forward<Fn>(fn)(*s.engine);
  }

 private:
  /// One partition: the lock and the state it guards live side by side so
  /// thread-safety analysis can tie them together, and each shard's hot
  /// mutex sits on its own cache line (fixed 64 rather than
  /// std::hardware_destructive_interference_size: the constant must not
  /// vary across TUs compiled with different tuning flags).
  struct alignas(64) Shard {
    mutable SeqLock mu;
    std::unique_ptr<SecureMemory> engine SECMEM_GUARDED_BY(mu)
        SECMEM_PT_GUARDED_BY(mu);
  };

  struct Route {
    unsigned shard;
    std::uint64_t local_block;
  };
  Route route(std::uint64_t block) const;
  void check_block(std::uint64_t block) const;
  /// Sorted, duplicate-free shard ids touched by blocks [first, last].
  std::vector<std::size_t> shards_in_range(std::uint64_t first_block,
                                           std::uint64_t last_block) const;
  /// Mutexes of `shards` (table order preserved) for lock_in_order.
  std::vector<SeqLock*> mutexes_of(std::span<const std::size_t> shards) const;
  /// Every cell backing this region: each shard's, then the region's own.
  std::vector<const MetricsCell*> all_cells() const;
  /// One optimistic generation-validated attempt at a cross-shard byte
  /// read; nullopt means torn-or-declined (caller retries / falls back).
  std::optional<Status> try_read_bytes_optimistic(
      std::uint64_t addr, std::span<std::uint8_t> out,
      std::span<const std::size_t> involved);
  /// restore() / restore_delta() bodies past the container magic, with
  /// optional stage/commit timing. Callers have consumed the 8 magic
  /// bytes and hold no locks yet.
  bool restore_full_tail(std::istream& in, SnapshotTiming* timing);
  bool restore_delta_tail(std::istream& in, SnapshotTiming* timing);
  /// Invalidate every shard's delta base (see SecureMemory::break_chain)
  /// after a container-level snapshot stream failure: the shards aligned
  /// on an image that never persisted, so the next save_delta must fall
  /// back to a full image.
  void break_shard_chains();
  /// Fail-closed verified-read outcome while poisoned.
  ReadResult poisoned_read() const noexcept;
  /// Account + trace one refused mutation on a poisoned region; returns
  /// Status::kRegionPoisoned for the caller to propagate.
  Status poisoned_mutation(std::uint64_t block) const noexcept;

  SecureMemoryConfig config_;  ///< region-level config (total size)
  unsigned num_shards_;
  unsigned granule_blocks_;
  std::uint64_t num_blocks_;
  /// Fixed-size at construction; Shard is neither movable nor copyable.
  std::unique_ptr<Shard[]> shards_;
  /// Set on key-rotation rollback failure; cleared by successful
  /// restore(). Acquire/release so the thread observing the flag also
  /// observes the trace/metric records that explain it.
  std::atomic<bool> poisoned_{false};
  std::function<void()> rotate_rollback_fault_hook_;  ///< test-only seam
  mutable MetricsCell metrics_;  ///< region-level (byte-op) counters
  TraceRing* trace_ = nullptr;
};

}  // namespace secmem
