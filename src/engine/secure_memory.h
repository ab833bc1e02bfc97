// SecureMemory — a functional authenticated-encrypted memory region.
//
// This is the library's primary public API: a byte-addressable region
// whose backing store holds only ciphertext, MAC/ECC lanes, counter
// storage, and Bonsai-tree nodes — exactly the bits an attacker with
// physical access to the DIMMs could see or flip. Reads perform real
// AES-CTR decryption, Carter-Wegman verification, Bonsai-tree counter
// authentication, and (in MAC-ECC mode) flip-and-check error correction.
//
// The `untrusted()` view exposes the attack/fault surface: everything that
// lives off-chip can be read, flipped, or rolled back; on-chip state
// (keys, tree root level, counter-scheme registers) cannot. This lets
// tests and examples mount the paper's threat model directly: bus
// tampering, cold-boot splicing, replay of stale (data, MAC, counter)
// triples, and DRAM bit faults.
//
// Observability: every operation records into a MetricsCell (relaxed
// atomics — see common/metrics.h), so stats() and publish_metrics() are
// safe to call from any thread without stalling the datapath, and an
// optional TraceRing captures recent (op, block, outcome) events for
// post-mortem analysis of integrity violations. The cell's increment is
// chosen by constness: non-const members run only under exclusive
// ownership (a shard's SeqWriteLock, or sole ownership of a plain
// engine) and count with single-writer stores; const members — the
// shared read path — see a const cell and count with fetch_add.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bitops.h"
#include "common/metrics.h"
#include "common/status.h"
#include "counters/counter_scheme.h"
#include "crypto/aes128.h"
#include "crypto/ctr_keystream.h"
#include "crypto/cw_mac.h"
#include "ecc/flip_and_check.h"
#include "ecc/mac_ecc.h"
#include "ecc/secded72.h"
#include "engine/delta_image.h"
#include "engine/encryption_engine.h"  // MacPlacement
#include "engine/layout.h"
#include "engine/secure_memory_like.h"
#include "tree/bonsai_tree.h"
#include "tree/tree_cache.h"

namespace secmem {

struct SecureMemoryConfig {
  std::uint64_t size_bytes = 4 * 1024 * 1024;
  CounterSchemeKind scheme = CounterSchemeKind::kDelta;
  MacPlacement mac_placement = MacPlacement::kEccLane;
  std::uint64_t onchip_bytes = 3 * 1024;
  /// Nonzero: override `scheme` with a GenericDeltaCounters of this delta
  /// width (2..16 bits) — the §4.2 design-space knob.
  unsigned generic_delta_bits = 0;
  /// Record per-operation wall-time of single-block reads and writes
  /// into the engine's latency histograms (read_latency_ns /
  /// write_latency_ns). Batch calls always run batched and are not
  /// sampled. Off by default: two clock reads per op are measurable on
  /// the hot path.
  bool time_ops = false;
  /// Verified-frontier tree cache capacity in KB (tree/tree_cache.h) —
  /// the functional counterpart of the paper's 8 KB metadata cache. 0
  /// disables it (every operation walks the tree to the root — the eager
  /// reference the cached path is diffed against). Sharded engines pass
  /// the config through per shard, so each shard gets its own cache
  /// inside its shard lock.
  unsigned tree_cache_kb = 8;
  /// Master secret; all working keys are derived from it.
  std::uint64_t master_key = 0x5ec3e7'c0ffee;
};

class SecureMemory : public SecureMemoryLike {
 public:
  // Result/report types predate the shared interface; they now live at
  // namespace scope (engine/secure_memory_like.h) and are re-exported
  // here for source compatibility.
  using ReadResult = secmem::ReadResult;
  using ScrubStatus = secmem::ScrubStatus;
  using ScrubReport = secmem::ScrubReport;
  using Stats = EngineStats;

  explicit SecureMemory(const SecureMemoryConfig& config);

  std::uint64_t size_bytes() const noexcept override {
    return config_.size_bytes;
  }
  std::uint64_t num_blocks() const noexcept override {
    return layout_.num_blocks();
  }
  const SecureRegionLayout& layout() const noexcept { return layout_; }
  const CounterScheme& counters() const noexcept { return *scheme_; }

  /// Write one 64-byte block of plaintext. Always kOk (see
  /// SecureMemoryLike::write_block).
  ///
  /// When a write overflows its delta group, the whole group re-encrypts
  /// through one batched pass: one crypt_batch decrypt of the stale
  /// ciphertexts, one crypt_batch + compute_batch + pack_lane_batch
  /// re-store, and one counter-line/tree sync for the group.
  [[nodiscard]] Status write_block(std::uint64_t block,
                                   const DataBlock& plaintext) override;

  /// Verified read of one 64-byte block.
  ReadResult read_block(std::uint64_t block) override;

  /// Batch I/O (see SecureMemoryLike). The overrides keep single-block
  /// semantics — identical statuses, corrections, and trace events —
  /// while running the crypto over the whole batch: counter lines
  /// authenticate once per line, AES pads stream through the wide
  /// kernel, and counter-line/tree syncs coalesce per dirty line.
  /// read_blocks is read_blocks_shared plus an exclusive read_block for
  /// each index the promotion pulse declined.
  [[nodiscard]] std::vector<ReadResult> read_blocks(
      std::span<const std::uint64_t> blocks) override;
  [[nodiscard]] Status write_blocks(std::span<const BlockWrite> writes)
      override;

  /// ------------------------------------------------------------------
  /// Shared (const) read fast path — the seqlock tier's workhorse.
  /// ------------------------------------------------------------------
  /// A verified read identical in verdict and plaintext to read_block(),
  /// but const: counter authentication goes through the tree cache's
  /// read-side probe() (no fills, no clock advance, recency restamped
  /// only when stale), and the only engine state written is the calling
  /// thread's stripe of the metrics cell, plus the promotion pulse on a
  /// cold line. The sharded engine calls this under a SHARED shard
  /// lock, so any number of readers proceed in parallel.
  ///
  /// Returns nullopt when the read *declines*: the counter line was not
  /// resident and the promotion pulse elected to bounce this read to the
  /// exclusive path, where read_block()'s verify() can install the line
  /// into the verified frontier (a shared reader must not mutate the
  /// cache, so without the pulse a cold line would walk to the root
  /// forever). Callers retry declined blocks under the exclusive lock.
  [[nodiscard]] std::optional<ReadResult> read_block_shared(
      std::uint64_t block) const;

  /// Batch read_block_shared over `blocks` into `results` (same size) —
  /// the one batched read body. Indices that declined are appended to
  /// `declined` and their result slot is untouched — callers re-read
  /// those under the exclusive lock. Callers validate the indices.
  void read_blocks_shared(std::span<const std::uint64_t> blocks,
                          std::span<ReadResult> results,
                          std::vector<std::uint32_t>& declined) const;

  /// Byte-level API; see SecureMemoryLike for the Status contract.
  /// `write_bytes` is all-or-nothing: the partial blocks at the edges of
  /// the range (the only blocks whose old contents must still verify) are
  /// pre-verified before anything is mutated, so a failure status means
  /// the region is exactly as it was — no torn multi-block writes. Both
  /// calls reject ranges that fall outside the region (including
  /// `addr + len` overflow) with std::out_of_range.
  Status write_bytes(std::uint64_t addr,
                     std::span<const std::uint8_t> bytes) override;
  Status read_bytes(std::uint64_t addr,
                    std::span<std::uint8_t> out) override;

  /// ------------------------------------------------------------------
  /// Scrubbing (paper §3.3, "Enabling Efficient Scrubbing").
  /// ------------------------------------------------------------------
  /// The MAC-ECC lane keeps one parity bit over the ciphertext and a
  /// Hamming code over the MAC, so scrubbing firmware can sweep for
  /// latent single-bit faults with two parity checks per line — no MAC
  /// recomputation. Lines that fail the quick check (or all lines, when
  /// `deep`) go through full verification and are *healed* in place:
  /// corrected data/MACs are re-written to the backing store.
  ScrubStatus scrub_block(std::uint64_t block, bool deep = false) override;

  /// Sweep the whole region (what the scrubbing firmware does
  /// periodically).
  ScrubReport scrub_all(bool deep = false) override;

  /// ------------------------------------------------------------------
  /// Key management.
  /// ------------------------------------------------------------------
  /// Re-key the region under a new master secret: every block is
  /// decrypted and verified under the old keys, the working keys and
  /// integrity tree are rebuilt, counters restart at zero (a fresh key
  /// makes every (addr, counter) nonce fresh again), and all data is
  /// re-encrypted. Returns false — leaving the region untouched — if any
  /// block fails verification under the old keys.
  ///
  /// rotate_master_key is stage_rotation then commit_rotation, and
  /// ShardedSecureMemory stages every shard before committing any.
  /// stage_rotation() verifies the whole region under the current keys
  /// without changing it and returns every plaintext, or nullopt after
  /// tracing the first block that failed. commit_rotation()
  /// re-keys under `new_master` and re-encrypts `plaintexts` (one block
  /// each); it cannot fail.
  [[nodiscard]] bool rotate_master_key(std::uint64_t new_master) override;
  [[nodiscard]] std::optional<std::vector<DataBlock>> stage_rotation();
  void commit_rotation(std::span<const DataBlock> plaintexts,
                       std::uint64_t new_master);

  /// ------------------------------------------------------------------
  /// Persistence (NVMM / hibernate model).
  /// ------------------------------------------------------------------
  /// `save` writes the off-chip state (ciphertext, ECC/MAC lanes,
  /// counter storage) plus a *sealed root snapshot* — the tree's on-chip
  /// root level, standing in for what a real deployment would keep in
  /// tamper-proof non-volatile storage (TPM/fuses). Keys are NEVER
  /// written; they derive from the master secret held by the caller.
  ///
  /// `restore` rebuilds the region from such an image: counter lines are
  /// decoded, the tree is reconstructed bottom-up, and its computed root
  /// level must match the sealed snapshot — any offline tamper of counter
  /// storage is rejected before a single block is served. (Replay of a
  /// complete, internally-consistent OLD image is accepted: image
  /// freshness requires a fresh root store, see SECURITY.md.)
  /// A rejected image returns false and leaves the region exactly as it
  /// was (restore is stage_image + commit_image, below).
  /// Both directions stream in bulk: ciphertext, ECC lanes, and counter
  /// storage are contiguous and byte-identical to the serialized layout,
  /// so they move through single large writes/reads; stored MACs convert
  /// endianness through a reusable engine-owned chunk buffer; and restore
  /// rebuilds the tree level-by-level through the batched MAC kernel
  /// (BonsaiTree::rebuild_from_lines).
  [[nodiscard]] Status save(std::ostream& out) override;
  [[nodiscard]] bool restore(std::istream& in) override {
    return restore_image(in, /*accept_delta=*/false);
  }

  /// ------------------------------------------------------------------
  /// Incremental (delta) persistence — see SecureMemoryLike for the
  /// interface contract and src/engine/delta_image.h for the codec.
  /// ------------------------------------------------------------------
  /// Every block store sets the owning granule's bit in a relaxed-atomic
  /// dirty bitmap (a granule = lcm(blocks_per_group,
  /// blocks_per_storage_line) blocks — whole re-encryption groups and
  /// whole counter lines, so a granule's payload is self-contained).
  /// save_delta drains that bitmap into a COPY/ADD stream sealed by a
  /// MAC over the header + commands + expected-root trailer, bound to
  /// the *base seal* — a MAC over the tree's root level at the last
  /// alignment point — so a delta only ever applies on top of the exact
  /// state it was diffed against. Tampering through the UntrustedView
  /// is deliberately NOT tracked: it models an attacker, and anything it
  /// corrupts inside a clean granule is covered by the base-seal check
  /// (the granule's counter lines feed the root) or by the per-block
  /// MACs once the block is read.
  ///
  /// Chain alignment points (save, save_delta, restore, restore_delta
  /// successes) update {epoch, base seal} and clear the bitmap;
  /// rotate_master_key breaks the chain (fresh seal key), so the next
  /// save_delta falls back to a full image and re-bases it.
  [[nodiscard]] Status save_delta(std::ostream& out) override;
  [[nodiscard]] bool restore_delta(std::istream& in) override {
    return restore_image(in, /*accept_delta=*/true);
  }

  /// Dirty-plane observability: granule size in blocks, granules touched
  /// since the last alignment point, the chain epoch, and whether a
  /// delta base exists (false on fresh engines and after rotations).
  std::uint64_t delta_granule_blocks() const noexcept {
    return granule_blocks_;
  }
  std::uint64_t dirty_granules() const noexcept;
  std::uint64_t snapshot_epoch() const noexcept { return snap_epoch_; }
  bool has_snapshot_base() const noexcept { return has_base_; }

  /// Invalidate the delta base so the next save_delta emits a full
  /// image. For containers whose stream write can fail
  /// AFTER the shard engines already aligned their chains into private
  /// buffers (ShardedSecureMemory::save/save_delta): the aligned bases
  /// describe an image that never persisted, so deltas against them
  /// would apply nowhere — breaking the chain restores coherence at the
  /// cost of one full fallback image.
  void break_chain() noexcept {
    has_base_ = false;
    mark_all_dirty();
  }

  /// Exact byte size of the image save() emits for this engine —
  /// callers slicing a concatenated multi-engine image (the sharded
  /// container's parallel restore) size their cuts with this.
  std::uint64_t image_bytes() const noexcept;
  /// Longest image save() or save_delta() can emit: the full image or a
  /// delta with the longest command stream parse() accepts. The sharded
  /// delta container caps each shard's slice with it.
  std::uint64_t max_image_bytes() const noexcept;

  /// Two-phase restore: restore() and restore_delta() are stage_image
  /// then commit_image, and ShardedSecureMemory stages every shard
  /// before committing any. stage_image() validates one image in full
  /// without changing engine state — a full image up to its sealed root;
  /// a delta through its command MAC, its base seal against the current
  /// root, command-stream validation, and tree authentication of every
  /// counter line an ADD command rewrites (the commit folds those lines'
  /// off-chip tree paths into the tree, so they must be authentic before
  /// any byte applies). nullopt means rejected and the region is EXACTLY
  /// as it was. The magic picks the kind; the stream
  /// form takes a delta only with `accept_delta`. Both kinds decode under
  /// the engine's current keys, a delta only on its current chain. A
  /// staged delta borrows its bytes from the span, or from the arena's
  /// stream buffer until the next stream stage.
  ///
  /// commit_image() adopts a staged image; a full image cannot fail. A
  /// delta's bool is a defense-in-depth verdict: the post-apply root is
  /// re-checked against the MAC-covered trailer, and a mismatch (a
  /// base-seal collision — cryptographically negligible) wipes the
  /// region to zeros (ShardedSecureMemory then wipes every shard).
  /// discard_image() drops a staged image that will not be committed,
  /// parking its storage for the next stage.
  struct StagedImage {
    /// Full image: sections in arena storage and the rebuilt tree
    /// (empty for a delta).
    std::vector<DataBlock> ciphertext;
    std::vector<EccLane> lanes;
    std::vector<std::uint64_t> macs;
    std::vector<std::uint8_t> counter_store;
    std::optional<BonsaiTree> tree;
    /// Delta: the epoch it advances to, its borrowed command and
    /// expected-root trailer bytes, and the parsed commands.
    std::uint64_t new_epoch = 0;
    std::span<const std::uint8_t> cmd;
    std::span<const std::uint8_t> trailer;
    std::vector<delta::Command> cmds;
  };
  [[nodiscard]] std::optional<StagedImage> stage_image(std::istream& in,
                                                       bool accept_delta);
  [[nodiscard]] std::optional<StagedImage> stage_image(
      std::span<const std::uint8_t> image);
  [[nodiscard]] bool commit_image(StagedImage&& staged);
  void discard_image(StagedImage&& staged) const;
  /// Re-initialize to encrypted zeros under the current keys, with a
  /// broken delta chain — the one failure posture left: a post-apply
  /// root mismatch in commit_delta, on this engine or (sharded) on any
  /// shard of the region.
  void wipe_to_zeros();
  /// Bytes of snapshot storage parked for reuse: the full-restore
  /// staging vectors plus the delta buffers (save_delta's command
  /// output, the stream delta buffer and parsed commands). Tests check
  /// that rejected restores keep it and steady delta cycles leave it
  /// constant.
  std::uint64_t snapshot_arena_bytes() const noexcept;

  /// ------------------------------------------------------------------
  /// Observability.
  /// ------------------------------------------------------------------
  /// Lock-free aggregate of the operation counters (compatibility view;
  /// the registry export below also carries the histograms).
  EngineStats stats() const noexcept override;
  void reset_stats() noexcept override;

  void publish_metrics(StatRegistry& registry,
                       const std::string& prefix = "engine") const override;

  /// The raw hot-path cell — sharded engines aggregate these directly.
  const MetricsCell& metrics_cell() const noexcept { return metrics_; }

  void attach_trace(TraceRing* ring) override { attach_trace(ring, 0); }
  /// Shard-aware attachment: events record with `shard` so a ring shared
  /// across a sharded region stays attributable.
  /// Safe while shared readers run: the shard tag is stored first and the
  /// ring published with release. The ring must outlive its use.
  void attach_trace(TraceRing* ring, std::uint16_t shard) noexcept {
    trace_shard_.store(shard, std::memory_order_relaxed);
    trace_.store(ring, std::memory_order_release);
  }

  /// ------------------------------------------------------------------
  /// Untrusted (off-chip) surface — the attacker's reach.
  /// ------------------------------------------------------------------
  class UntrustedView {
   public:
    explicit UntrustedView(SecureMemory& owner) : m_(owner) {}

    /// Raw ciphertext / ECC-lane access for a block.
    std::span<std::uint8_t, kBlockBytes> ciphertext(std::uint64_t block) {
      return std::span<std::uint8_t, kBlockBytes>(m_.ciphertext_.at(block));
    }
    std::span<std::uint8_t, kEccLaneBytes> ecc_lane(std::uint64_t block) {
      return std::span<std::uint8_t, kEccLaneBytes>(m_.lanes_.at(block));
    }
    /// Stored counter line bytes (authenticated by the tree).
    std::span<std::uint8_t, 64> counter_line(std::uint64_t line) {
      return std::span<std::uint8_t, 64>(
          m_.counter_store_.data() + line * 64, 64);
    }
    /// Off-chip tree nodes (levels 1..offchip-1). Flush barrier: the
    /// verified-frontier cache writes back and drops residency first, so
    /// the returned backing state is exactly the eager path's and any
    /// tampering done through it is seen by subsequent verifies.
    BonsaiTree& tree() {
      m_.tree_cache_.flush();
      return m_.tree_;
    }
    /// Stored 56-bit MACs (separate-MAC mode only).
    std::vector<std::uint64_t>& macs() { return m_.macs_; }

    void flip_ciphertext_bit(std::uint64_t block, unsigned bit) {
      flip_bit(ciphertext(block), bit);
    }
    void flip_lane_bit(std::uint64_t block, unsigned bit) {
      flip_bit(ecc_lane(block), bit);
    }
    void flip_counter_bit(std::uint64_t line, unsigned bit) {
      flip_bit(counter_line(line), bit);
    }

    /// Cold-boot-style snapshot/rollback of a block's off-chip state —
    /// the raw material of a replay attack.
    struct BlockSnapshot {
      DataBlock ciphertext;
      EccLane lane;
      std::uint64_t mac;  ///< separate-MAC mode
      std::vector<std::uint8_t> counter_line;
    };
    BlockSnapshot snapshot(std::uint64_t block) const;
    void restore(std::uint64_t block, const BlockSnapshot& snapshot);

   private:
    SecureMemory& m_;
  };

  UntrustedView untrusted() { return UntrustedView(*this); }

  /// Instantiate the counter scheme a config resolves to — exposed so
  /// ShardedSecureMemory can probe group/storage-line geometry when
  /// choosing its routing granule.
  static std::unique_ptr<CounterScheme> make_scheme(
      const SecureMemoryConfig& config);

 private:
  friend class UntrustedView;
  static LayoutParams layout_params(const SecureMemoryConfig& config,
                                    const CounterScheme& scheme);

  /// Encrypt + MAC `plaintext` under `counter` and store everything. One
  /// AES call (CwMac::keystream_and_pad) yields the keystream and pad.
  void store_block(std::uint64_t block, const DataBlock& plaintext,
                   std::uint64_t counter);
  /// Batch store_block: keystreams and MAC pads go through the batched
  /// crypto kernels. Equivalent to calling store_block per element in
  /// order (counter lines are NOT synced — callers do that per line).
  void store_blocks(std::span<const std::uint64_t> blocks,
                    std::span<const DataBlock> plaintexts,
                    std::span<const std::uint64_t> counters);
  /// Re-store every block under `counter`. `plaintexts` holds one block
  /// each, or is empty for all-zeros (init / failed-restore wipe). Syncs
  /// all counter lines afterwards.
  void reset_all_blocks(std::span<const DataBlock> plaintexts,
                        std::uint64_t counter);
  /// Re-encrypt every block of `group` except `skip_block` under the
  /// fresh group counter `new_counter` (paper Fig 5a). The batched path
  /// gathers the group's stale ciphertexts, decrypts them with their
  /// shadow counters through one crypt_batch, and re-stores through the
  /// batched store_blocks (8-wide AES + compute_batch + lane-pack batch).
  /// Counter lines are NOT synced — the caller owns the one sync per
  /// group. Returns the number of blocks rewritten.
  std::uint64_t reencrypt_group(std::uint64_t group, std::uint64_t skip_block,
                                std::uint64_t new_counter);
  /// Refresh stored counter line `line` and its tree path (write-back:
  /// ancestor MAC propagation defers to the tree cache when enabled).
  void sync_counter_line(std::uint64_t line);
  /// The one body of restore() and restore_delta(): stage, then commit.
  /// A rejection traces one kRestore/kIntegrityViolation event (and
  /// counts kDeltaRejects with `accept_delta`); the region stays as it
  /// was.
  bool restore_image(std::istream& in, bool accept_delta);
  /// stage_image's and commit_image's halves. The stagers start past the
  /// magic: a full image off `in`, a delta's header fields in place.
  [[nodiscard]] std::optional<StagedImage> stage_restore_tail(
      std::istream& in);
  [[nodiscard]] std::optional<StagedImage> stage_delta(
      std::span<const std::uint8_t> image);
  [[nodiscard]] bool commit_delta(StagedImage&& staged);
  /// Image framing: the four geometry fields every image header opens
  /// with — size, scheme, MAC placement, generic delta bits.
  std::array<std::uint64_t, 4> image_geometry() const noexcept;
  /// The root level of `tree` (the sealed on-chip snapshot) as one byte
  /// string in scratch_.root_bytes — what a full image seals, a delta
  /// trailer carries and root_seal() seals; verify_root_level compares
  /// it with `expected` in constant time.
  std::span<const std::uint8_t> root_level(const BonsaiTree& tree);
  std::uint64_t root_level_bytes() const noexcept;
  [[nodiscard]] bool verify_root_level(const BonsaiTree& tree,
                                       std::span<const std::uint8_t> expected);
  /// Authenticate stored counter line `line` through the verified
  /// frontier — the single tree-read entry point for read_block and the
  /// batch paths.
  [[nodiscard]] bool verify_counter_line(std::uint64_t line);
  /// Software prefetch of `block`'s off-chip state — both cache lines its
  /// ciphertext can span, its lane, its separate-region MAC and its
  /// serialized counter line `line` — issued at read entry so those
  /// memory fetches overlap the tree walk, as the paper's single access
  /// does. A hint with no semantic effect.
  void prefetch_block(std::uint64_t block, std::uint64_t line) const noexcept;
  /// Steps 2-4 of every verified read, once the counter line is
  /// authentic: unpack the MAC lane (SEC-DED decode on the separate-MAC
  /// path), verify the MAC under `pad`, run flip-and-check on a
  /// mismatch, then decrypt with `keystream`. The caller computes both
  /// for the block's (address, counter) — one keystream_and_pad call on
  /// the single-block paths, pad_batch + generate_batch on the batch —
  /// so this makes no cipher call. The keystream is applied only after
  /// every verdict: a rejected read returns all-zero data. Const and
  /// accounting-free — each read path commits the result itself.
  ReadResult decrypt_verified(std::uint64_t block, std::uint64_t pad,
                              const DataBlock& keystream) const;
  /// Metrics/trace bookkeeping for one read outcome, the one body behind
  /// every read path. `Self` is SecureMemory or const SecureMemory, so
  /// the metrics cell takes the increment the calling member's constness
  /// allows (common/metrics.h): read_block counts with single-writer
  /// stores, the shared paths atomically.
  template <class Self>
  static void count_read(Self& self, const ReadResult& result,
                         std::uint64_t block) noexcept;
  /// Promotion pulse: true when this shared read of a non-`resident`
  /// counter line must decline to the exclusive path.
  bool pulse_declines(bool resident) const noexcept;
  void trace(TraceEvent::Kind kind, Status outcome,
             std::uint64_t block) const noexcept {
    if (TraceRing* ring = trace_.load(std::memory_order_acquire))
      ring->record(kind, outcome, block,
                   trace_shard_.load(std::memory_order_relaxed));
  }

  /// ------------------------------------------------------------------
  /// Delta-snapshot plane.
  /// ------------------------------------------------------------------
  /// One relaxed load and store per block store — the entire
  /// steady-state cost of dirty tracking. Covers every backing-store
  /// mutation path (writes, group re-encryptions, scrub heals,
  /// rotations, restores) because they all funnel through
  /// store_block/store_blocks. Single-writer like every non-const
  /// member: store paths run under exclusive ownership, so no lock
  /// prefix.
  void mark_dirty(std::uint64_t block) noexcept {
    const std::uint64_t g = block / granule_blocks_;
    std::atomic<std::uint64_t>& word = dirty_words_[g >> 6];
    word.store(word.load(std::memory_order_relaxed) |
                   (std::uint64_t{1} << (g & 63)),
               std::memory_order_relaxed);
  }
  void mark_all_dirty() noexcept;
  void clear_dirty() noexcept;
  delta::Geometry delta_geometry() const noexcept;
  /// Seal of the engine's CURRENT root level (flushes the tree cache) —
  /// the delta chain's base digest.
  std::uint64_t root_seal();
  /// Establish the current state as the delta base: record its seal,
  /// clear the dirty bitmap. Every successful snapshot operation ends
  /// here.
  void align_chain();
  /// Command-section MAC over header fields + commands + trailer.
  std::uint64_t delta_cmd_mac(std::uint64_t base_epoch,
                              std::uint64_t new_epoch,
                              std::uint64_t base_seal,
                              std::span<const std::uint8_t> cmd,
                              std::span<const std::uint8_t> trailer)
      const noexcept;

  SecureMemoryConfig config_;
  std::unique_ptr<CounterScheme> scheme_;
  SecureRegionLayout layout_;
  CtrKeystream keystream_;
  CwMac mac_;
  /// Keys the snapshot-chain seals (root digests, delta command MACs) —
  /// derived from the master AFTER the existing keys, so adding it left
  /// every pre-delta key bit-identical (full images are unchanged).
  CwMac seal_mac_;
  MacEccCodec mac_ecc_;
  Secded72 secded_;
  FlipAndCheck corrector_;
  BonsaiTree tree_;
  /// Declared directly after tree_: holds a reference to it and must be
  /// constructed after (and destroyed before) the tree it fronts.
  VerifiedTreeCache tree_cache_;

  std::vector<DataBlock> ciphertext_;
  std::vector<EccLane> lanes_;
  std::vector<std::uint64_t> macs_;          ///< separate-MAC mode
  std::vector<std::uint8_t> counter_store_;  ///< serialized counter lines
  std::vector<std::uint64_t> shadow_ctr_;    ///< current counter per block
  /// Published with release by attach_trace and loaded with acquire by
  /// every traced operation, so attaching needs no lock of its own.
  std::atomic<TraceRing*> trace_{nullptr};
  std::atomic<std::uint16_t> trace_shard_{0};
  /// Not mutable: const members (the shared read path) see a const cell
  /// and count with fetch_add into their thread's stripe; non-const
  /// members, which hold the engine exclusively, count with single-writer
  /// stores (common/metrics.h).
  MetricsCell metrics_;
  /// Promotion pulse for read_block_shared: a relaxed counter of
  /// non-resident shared reads; every kSharedProbePulse-th one declines
  /// so the exclusive retry warms the verified frontier. The one word
  /// every shared reader of a cold line writes, so it gets its own line.
  alignas(64) mutable std::atomic<std::uint64_t> shared_cold_reads_{0};
  /// Batch-path scratch, reused across calls so a group drain performs
  /// no heap allocation in steady state (capacity sticks at the group
  /// size after the first overflow). Guarded by the engine's external
  /// synchronization contract — store_blocks/reencrypt_group run only
  /// under the exclusive write path.
  struct BatchScratch {
    std::vector<std::uint64_t> blocks, addrs, old_ctrs, new_ctrs;
    std::vector<DataBlock> plains;
    std::vector<std::uint64_t> store_addrs, tags;
    std::vector<DataBlock> cts;
    std::vector<EccLane> packed;
    /// Serialization chunk buffer for save()'s endian-converted MAC
    /// stream; capacity sticks after the first save, so steady-state
    /// snapshots allocate nothing.
    std::vector<std::uint8_t> io_bytes;
    /// save_delta's drained dirty bitmap and the root-level bytes that
    /// seals and delta trailers are built from.
    std::vector<std::uint64_t> dirty_words;
    std::vector<std::uint8_t> root_bytes;
  };
  BatchScratch scratch_;
  /// Staging-storage recycler for the restore path: commit_image
  /// parks the replaced state vectors here (a rejected or discarded
  /// staging parks its own) and the next full-image stage adopts them, so
  /// steady-state crash/restore loops allocate (and page-fault) nothing
  /// — the dominant cost of a large restore once the stream calls are
  /// chunked. The delta buffers recycle the same way: a steady delta
  /// chain reuses one command-output buffer, one stream buffer and one
  /// parsed-command vector, each sized by the largest delta seen.
  /// Mutable because discard_image is const by contract (it never
  /// changes engine *state*) yet runs only under the engine's exclusive
  /// synchronization, like every snapshot entry point.
  struct SnapshotArena {
    std::vector<DataBlock> ciphertext;
    std::vector<EccLane> lanes;
    std::vector<std::uint64_t> macs;
    std::vector<std::uint8_t> counter_store;
    std::vector<std::uint8_t> delta_cmd;     ///< save_delta's command output
    std::vector<std::uint8_t> delta_stream;  ///< stream-staged delta input
    std::vector<delta::Command> delta_cmds;  ///< adopted by a staged delta
  };
  mutable SnapshotArena snap_arena_;

  /// Dirty plane: bit per granule, relaxed atomics so the const shared
  /// read path's callers never contend with it (only store paths touch
  /// it, and those run under exclusive synchronization anyway).
  std::uint64_t granule_blocks_ = 1;
  std::uint64_t num_granules_ = 0;
  std::uint64_t dirty_word_count_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> dirty_words_;
  /// delta::max_stream_bytes of this engine's geometry: bounds a delta's
  /// claimed command length before any read.
  std::uint64_t delta_cmd_bound_ = 0;
  /// Chain state: epoch counts alignment points; base_seal_ is the root
  /// seal at the last one; has_base_ false = no delta base (fresh
  /// engine, broken chain after rotation or failed restore).
  std::uint64_t snap_epoch_ = 0;
  std::uint64_t base_seal_ = 0;
  bool has_base_ = false;
};

}  // namespace secmem
