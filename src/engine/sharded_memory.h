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
// secmem::SeqLock (a reader/writer lock with a per-thread reader
// indicator, common/thread_annotations.h), and the shard's engine is
// SECMEM_GUARDED_BY that lock, so touching an engine without holding it
// is a *build error*. Writers and every mutating maintenance operation
// take the exclusive side (SeqWriteLock); verified reads take the shared
// side (SeqReadLock, which on the fast path writes only the reading
// thread's own slot) and run through SecureMemory's const
// read_block_shared() fast path, so a read-mostly workload is limited by
// crypto throughput, not lock convoys — with N readers on one hot shard
// the old per-shard std::mutex serialized them all. Cross-shard paths,
// byte reads and byte writes alike, acquire runtime-selected exclusive
// lock sets in fixed ascending table order via lock_in_order
// (engine/lock_table.h). The runtime-lock-set functions are beyond
// static analysis and carry SECMEM_NO_THREAD_SAFETY_ANALYSIS plus TSan
// coverage.
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
// A shard's exclusive-path increments are single-writer stores (the
// SeqWriteLock excludes every other writer of those words); every const
// path counts into the calling thread's stripe of the cell, so shared
// readers never write the words an exclusive writer stores to.
#pragma once

#include <atomic>
#include <cstdint>
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
#include "engine/shard_pool.h"

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
  std::uint64_t size_bytes() const noexcept override { return size_bytes_; }
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
  /// shard boundaries: both calls exclusively lock every shard the range
  /// touches (in table order) for the whole range. `write_bytes` keeps
  /// SecureMemory's all-or-nothing guarantee: edge blocks are
  /// pre-verified before any shard is mutated.
  /// ------------------------------------------------------------------
  Status write_bytes(std::uint64_t addr,
                     std::span<const std::uint8_t> bytes) override;
  Status read_bytes(std::uint64_t addr,
                    std::span<std::uint8_t> out) override;

  /// ------------------------------------------------------------------
  /// Region-wide maintenance, shard-parallel on the region's persistent
  /// ShardPool (engine/shard_pool.h): min(shards, hardware threads) - 1
  /// workers started with the engine, plus the calling thread, drain one
  /// shard cursor. If another operation's job holds the pool, the call
  /// sweeps every shard on its own thread. Unswept shards keep serving
  /// their callers.
  /// ------------------------------------------------------------------
  ScrubReport scrub_all(bool deep = false) override;

  /// Re-key every shard under secrets derived from `new_master`, with
  /// the restores' protocol: every shard lock in table order, every
  /// shard staged (SecureMemory::stage_rotation verifies and decrypts it
  /// under its current keys) in parallel on the pool, and only then
  /// every shard committed (commit_rotation cannot fail). If any shard
  /// refuses, false is returned before any shard changed — the region is
  /// never split-keyed, and the refusing shard traces its bad block. The
  /// price: the call blocks every shard for its whole duration and holds
  /// one region's worth of plaintext at once.
  [[nodiscard]] bool rotate_master_key(std::uint64_t new_master) override;

  /// Aggregated operational statistics across all shards — lock-free:
  /// sums the shards' relaxed-atomic cells without touching the locks.
  EngineStats stats() const noexcept override;
  void reset_stats() noexcept override;

  /// Publishes the region aggregate under `prefix` plus a per-shard
  /// breakdown under "<prefix>.shard<N>".
  void publish_metrics(StatRegistry& registry,
                       const std::string& prefix = "engine") const override;

  /// The shared ring receives every shard's events, tagged with the shard
  /// index; a region-level byte operation records the (global) block its
  /// verdict names — the first failed block, else the range's first —
  /// under that block's owning shard. Safe to call while other threads
  /// use the engine, and takes no shard lock (every ring pointer is an
  /// atomic, published with release); the ring must outlive its use — an
  /// operation that loaded it just before a detach may still record into
  /// it.
  void attach_trace(TraceRing* ring) override;

  /// Persistence: a shard-count-tagged container of per-shard images.
  /// restore() is all-or-nothing across shards: every shard's image is
  /// staged and fully validated (sealed-root check included) while all
  /// shard locks are held, and only then are the shards committed —
  /// mirroring write_bytes' pre-verify-then-mutate protocol. A false
  /// return means the region is EXACTLY as it was; a true return
  /// restores every shard. Every shard stages under its own current
  /// keys. Every rejection, container damage included, records one
  /// kRestore/kIntegrityViolation trace event, tagged with the shard
  /// that failed to stage (shard 0 for the container itself).
  ///
  /// The container is the 24-byte header (magic, shard count, granule
  /// blocks) followed by each shard's SecureMemory::save image in shard
  /// order. Both directions stream straight through the caller's
  /// stream, with no whole-image staging copy: save() writes each shard
  /// under that shard's lock, so shards not yet reached keep serving;
  /// restore() stages each shard off the stream into that engine's
  /// recycled staging storage, then commits the shards in parallel on
  /// the shard pool (see scrub_all) — or on its own thread when another
  /// job holds the pool, since that job may be waiting for a shard lock
  /// the restore holds. A save that fails mid-stream breaks every
  /// shard's delta chain.
  [[nodiscard]] Status save(std::ostream& out) override;
  [[nodiscard]] bool restore(std::istream& in) override {
    return restore_container(in, nullptr, /*accept_delta=*/false);
  }

  /// Delta persistence: a shard-count-tagged container of per-shard
  /// delta images (see SecureMemory::save_delta). Unlike the full
  /// container, per-shard payloads are variable-sized — a shard with a
  /// hot working set emits a small COPY/ADD delta while a shard with a
  /// broken chain (fresh, just rotated) falls back to its full image —
  /// so a length table sits between the header and the payloads, and
  /// every shard serializes into its own slice buffer, filled in
  /// parallel on the shard pool.
  ///
  /// restore_delta() accepts BOTH container kinds, dispatching on the
  /// magic: a full container (save()'s output) takes the full-restore
  /// path; a delta container bulk-reads the payload once, slices it by
  /// the length table, and stages every shard's slice — a full image or
  /// a delta, verified and parsed in place by SecureMemory::stage_image
  /// over the span — with all shard locks held, then commits.
  ///
  /// The slice buffers and the payload buffer belong to the container
  /// and are recycled across calls, so a steady delta chain allocates no
  /// payload-sized storage on either side. A buffer that held a full
  /// fallback image is released instead of recycled: it is a whole
  /// shard image, and the deltas after it are a few percent of that.
  ///
  /// Same all-or-nothing contract as restore(): any staging failure
  /// (container damage, one tampered shard, one stale base seal, one
  /// tampered tree path under a line the delta rewrites) returns false
  /// with the region EXACTLY as it was, and every rejected call counts
  /// one snapshot.delta.rejects. The one exception mirrors
  /// SecureMemory::commit_image's defense-in-depth verdict: a post-apply
  /// root mismatch on a shard (cryptographically negligible) wipes every
  /// shard to zeros, as the plain engine wipes its region, rather than
  /// serve a half-applied state.
  [[nodiscard]] Status save_delta(std::ostream& out) override;
  [[nodiscard]] bool restore_delta(std::istream& in) override {
    return restore_container(in, nullptr, /*accept_delta=*/true);
  }

  /// restore_delta() plus a stage/commit wall-time split for the
  /// snapshot benchmark. Accepts both container kinds.
  [[nodiscard]] bool restore_timed(std::istream& in, SnapshotTiming& timing) {
    return restore_container(in, &timing, /*accept_delta=*/true);
  }

  /// Total dirty delta-granules across shards — a relaxed-atomic
  /// snapshot, lock-free like stats().
  std::uint64_t dirty_granules() const noexcept;

  /// Bytes the container keeps parked for delta replication: the
  /// per-shard slice buffers plus the payload buffer (each shard's own
  /// arena is SecureMemory::snapshot_arena_bytes).
  std::uint64_t delta_buffer_bytes() const;

  /// Run `fn(SecureMemory&)` against one shard under its exclusive lock
  /// — for tests and attacker simulation (the untrusted view is per
  /// shard). Readers of the shard wait it out like any writer.
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
  /// Every shard lock, taken in table order, and the engines they guard
  /// — the prologue of every region-wide change (rotation and the
  /// restores), held until the last commit. The pool workers get raw
  /// engine pointers: each touches only its own shard's engine, under a
  /// lock the caller holds.
  struct AllShards {
    std::vector<std::unique_lock<SeqLock>> locks;
    std::vector<SecureMemory*> engines;
  };
  AllShards lock_all_shards();
  /// Every cell backing this region: each shard's, then the region's own.
  std::vector<const MetricsCell*> all_cells() const;
  /// The one body behind restore(), restore_delta() and restore_timed():
  /// container magic and header, every lock, staging, then the
  /// shard-parallel commit (timed into `timing` when non-null). A delta
  /// container is accepted only with `accept_delta`.
  bool restore_container(std::istream& in, SnapshotTiming* timing,
                         bool accept_delta);
  /// Stage every shard of a full / delta container whose header `in`
  /// has consumed. Returns the first shard that failed (0 for damage to
  /// the container itself), or nullopt once every shard staged. The
  /// delta stager says in `keep_payload` whether the bulk payload
  /// buffer is worth recycling.
  std::optional<unsigned> stage_full_container(
      std::istream& in, std::span<SecureMemory* const> engines,
      std::span<std::optional<SecureMemory::StagedImage>> staged);
  std::optional<unsigned> stage_delta_container(
      std::istream& in, std::span<SecureMemory* const> engines,
      std::span<std::optional<SecureMemory::StagedImage>> staged,
      bool& keep_payload) SECMEM_REQUIRES(snapshot_mu_);
  /// The one reject path of every restore: hand each staged shard its
  /// storage back, record one kRestore/kIntegrityViolation event
  /// against `shard` (plus kDeltaRejects with `accept_delta`), return
  /// false.
  bool reject_restore(
      std::span<SecureMemory* const> engines,
      std::span<std::optional<SecureMemory::StagedImage>> staged,
      unsigned shard, bool accept_delta);
  /// Invalidate every shard's delta base (see SecureMemory::break_chain)
  /// after a container-level snapshot stream failure: the shards aligned
  /// on an image that never persisted, so the next save_delta must fall
  /// back to a full image.
  void break_shard_chains();
  /// Records a region-level event into the attached ring, if any.
  void trace(TraceEvent::Kind kind, Status outcome, std::uint64_t block,
             unsigned shard) const noexcept {
    if (TraceRing* ring = trace_.load(std::memory_order_acquire))
      ring->record(kind, outcome, block, static_cast<std::uint16_t>(shard));
  }

  /// Total region size; the keys live in the shard engines.
  std::uint64_t size_bytes_;
  unsigned num_shards_;
  unsigned granule_blocks_;
  std::uint64_t num_blocks_;
  /// Longest per-shard slice a delta container may claim (fixed by
  /// geometry at construction).
  std::uint64_t slice_cap_ = 0;
  /// Fixed-size at construction; Shard is neither movable nor copyable.
  std::unique_ptr<Shard[]> shards_;
  /// Region snapshot lock: serializes rotation, the restores and
  /// save_delta, and guards the recycled delta-replication buffers.
  /// Always taken BEFORE any shard lock.
  mutable Mutex snapshot_mu_;
  /// save_delta's per-shard slice buffers and restore_delta's bulk
  /// payload buffer.
  std::vector<std::vector<char>> delta_slices_ SECMEM_GUARDED_BY(snapshot_mu_);
  std::vector<char> delta_payload_ SECMEM_GUARDED_BY(snapshot_mu_);
  ShardPool pool_;
  /// Region-level (byte-op) counters. Const: the container's members run
  /// concurrently without a common lock, so every increment must take
  /// the cell's atomic form (common/metrics.h).
  const MetricsCell metrics_;
  /// Loaded with acquire by every region-level event; see attach_trace.
  std::atomic<TraceRing*> trace_{nullptr};
};

}  // namespace secmem
