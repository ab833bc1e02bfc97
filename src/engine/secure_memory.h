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
// post-mortem analysis of integrity violations.
#pragma once

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
  /// Flip-and-check effort in MAC-ECC mode (0 disables correction).
  unsigned max_correctable_errors = 2;
  /// Nonzero: override `scheme` with a GenericDeltaCounters of this delta
  /// width (2..16 bits) — the §4.2 design-space knob.
  unsigned generic_delta_bits = 0;
  /// Record per-operation wall-time into the engine's latency histograms
  /// (read_latency_ns / write_latency_ns). Off by default: two clock
  /// reads per op are measurable on the hot path.
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

  /// Write one 64-byte block of plaintext. Always kOk here — the plain
  /// engine has no fail-closed state — but callers consume the Status so
  /// they behave identically against the poisoning-capable sharded engine.
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
  /// read-side probe() (no fills, no LRU reordering beyond the relaxed
  /// touch), and the only engine state touched is the relaxed-atomic
  /// metrics cell. The sharded engine calls this under a SHARED shard
  /// lock, so any number of readers proceed in parallel.
  ///
  /// Returns nullopt when the read *declines*: the counter line was not
  /// resident and the promotion pulse elected to bounce this read to the
  /// exclusive path, where read_block()'s verify() can install the line
  /// into the verified frontier (a shared reader must not mutate the
  /// cache, so without the pulse a cold line would walk to the root
  /// forever). Callers retry declined blocks under the exclusive lock.
  ///
  /// `account` false defers metrics/trace to an explicit account_read()
  /// call — the cross-shard byte-read path validates a whole optimistic
  /// snapshot before committing any accounting, so retries don't
  /// double-count.
  [[nodiscard]] std::optional<ReadResult> read_block_shared(
      std::uint64_t block, bool account = true) const;

  /// Batch read_block_shared over `blocks` into `results` (same size) —
  /// the one batched read body. Indices that declined are appended to
  /// `declined` and their result slot is untouched — callers re-read
  /// those under the exclusive lock. Callers validate the indices.
  void read_blocks_shared(std::span<const std::uint64_t> blocks,
                          std::span<ReadResult> results,
                          std::vector<std::uint32_t>& declined) const;

  /// Whole-range shared read with read_bytes() semantics (same statuses,
  /// same partial-output behavior on failure). nullopt when any block
  /// declines — in that case NOTHING has been accounted, so the caller's
  /// exclusive read_bytes() retry keeps the books identical to a single
  /// call. All metrics/trace commit only once the attempt stands.
  [[nodiscard]] std::optional<Status> read_bytes_shared(
      std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Metrics/trace bookkeeping for one read outcome. Public and const so
  /// callers running deferred-accounting shared reads (account=false)
  /// can commit the books once the whole operation is known to stick.
  void account_read(const ReadResult& result, std::uint64_t block)
      const noexcept;

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
  [[nodiscard]] bool rotate_master_key(std::uint64_t new_master) override;

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
  /// On any failure the region re-initializes to zeros and restore
  /// returns false.
  /// Both directions stream in bulk: ciphertext, ECC lanes, and counter
  /// storage are contiguous and byte-identical to the serialized layout,
  /// so they move through single large writes/reads; stored MACs convert
  /// endianness through a reusable engine-owned chunk buffer; and restore
  /// rebuilds the tree level-by-level through the batched MAC kernel
  /// (BonsaiTree::rebuild_from_lines).
  [[nodiscard]] Status save(std::ostream& out) override;
  [[nodiscard]] bool restore(std::istream& in) override;

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
  [[nodiscard]] bool restore_delta(std::istream& in) override;

  /// Diff two full save() images of THIS engine's geometry into a delta
  /// stream restore_delta accepts (cross-instance replication under the
  /// same master secret — the command MAC and seals derive from it). No
  /// dirty information: a one-pass block-hash diff finds the COPYs.
  /// kIntegrityViolation if either buffer is not a full image of this
  /// geometry; nothing is written in that case.
  [[nodiscard]] Status encode_delta(std::span<const std::uint8_t> base_image,
                                    std::span<const std::uint8_t> target_image,
                                    std::ostream& out) const;

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

  // Keep the base class's std::byte-span / buffer overloads visible next
  // to the overrides above.
  using SecureMemoryLike::read_bytes;
  using SecureMemoryLike::restore;
  using SecureMemoryLike::restore_delta;
  using SecureMemoryLike::save;
  using SecureMemoryLike::save_delta;
  using SecureMemoryLike::write_bytes;

  /// Two-phase restore, for containers that need all-or-nothing semantics
  /// across several engines (ShardedSecureMemory stages every shard's
  /// image before committing any). stage_restore() parses and fully
  /// validates an image — including the sealed-root check — without
  /// touching engine state; nullopt means the image is unusable and the
  /// region is EXACTLY as it was. commit_restore() adopts a staged image;
  /// it cannot fail. restore() above is stage + commit under the current
  /// master, plus the single-engine wipe-to-zeros policy on failure.
  ///
  /// `master_key` is the secret the image is interpreted under —
  /// normally the engine's current one, but a caller that knows the
  /// engine's key no longer matches the image (ShardedSecureMemory
  /// recovering a shard stranded on a half-rotated key) passes the
  /// master the image was saved with; commit then re-derives the
  /// engine's working keys from it.
  struct StagedRestore {
    std::uint64_t master_key;  ///< master the image decodes under
    std::vector<DataBlock> ciphertext;
    std::vector<EccLane> lanes;
    std::vector<std::uint64_t> macs;
    std::vector<std::uint8_t> counter_store;
    BonsaiTree tree;
  };
  [[nodiscard]] std::optional<StagedRestore> stage_restore(
      std::istream& in) const;
  [[nodiscard]] std::optional<StagedRestore> stage_restore(
      std::istream& in, std::uint64_t master_key) const;
  void commit_restore(StagedRestore&& staged);
  /// Drop a staged image that will not be committed (another shard of
  /// an all-or-nothing restore was rejected), parking its storage for
  /// the next stage_restore as commit_restore would. Engine state is
  /// untouched.
  void discard_restore(StagedRestore&& staged) const;
  /// Bytes of staging storage parked for the next stage_restore (tests
  /// check that a rejected restore does not drop it).
  std::uint64_t snapshot_arena_bytes() const noexcept;

  /// Two-phase delta restore, mirroring stage_restore/commit_restore for
  /// the sharded all-or-nothing path. stage_delta consumes a delta image
  /// (magic onward) and performs EVERY check — geometry, command-section
  /// MAC (ct_equal), base seal against the engine's current root,
  /// command-stream validation — without touching engine state; nullopt
  /// means rejected and the region is exactly as it was. commit_delta
  /// applies the commands in place, refreshes scheme/tree/shadow state
  /// for the written granules, and advances the chain. Its bool is a
  /// defense-in-depth verdict: the post-apply root is re-checked against
  /// the image's MAC-covered trailer, and a mismatch (a base-seal
  /// collision — cryptographically negligible) wipes the region to
  /// zeros and returns false.
  struct StagedDelta {
    std::uint64_t new_epoch = 0;
    std::vector<std::uint8_t> cmd;      ///< raw command-stream bytes
    std::vector<delta::Command> cmds;   ///< parsed + validated commands
    std::vector<std::uint8_t> trailer;  ///< expected post-apply root level
  };
  [[nodiscard]] std::optional<StagedDelta> stage_delta(std::istream& in);
  [[nodiscard]] bool commit_delta(StagedDelta&& staged);

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
  void attach_trace(TraceRing* ring, std::uint16_t shard) noexcept {
    trace_ = ring;
    trace_shard_ = shard;
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

  /// Encrypt + MAC `plaintext` under `counter` and store everything.
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
  /// batched store_blocks (4-wide AES + compute_batch + lane-pack batch).
  /// Counter lines are NOT synced — the caller owns the one sync per
  /// group. Returns the number of blocks rewritten.
  std::uint64_t reencrypt_group(std::uint64_t group, std::uint64_t skip_block,
                                std::uint64_t new_counter);
  /// Refresh stored counter line `line` and its tree path (write-back:
  /// ancestor MAC propagation defers to the tree cache when enabled).
  void sync_counter_line(std::uint64_t line);
  /// Re-initialize to encrypted zeros under fresh state — the
  /// single-engine failure posture shared by restore() and a
  /// commit_delta root mismatch.
  void wipe_to_zeros();
  /// stage_restore minus the magic bytes — restore_delta dispatches on
  /// the magic itself and hands the stream tail here.
  [[nodiscard]] std::optional<StagedRestore> stage_restore_tail(
      std::istream& in, std::uint64_t master_key) const;
  /// stage_delta minus the magic bytes.
  [[nodiscard]] std::optional<StagedDelta> stage_delta_tail(std::istream& in);
  /// Authenticate stored counter line `line` through the verified
  /// frontier — the single tree-read entry point for read_block and the
  /// batch paths.
  [[nodiscard]] bool verify_counter_line(std::uint64_t line);
  /// Steps 2-4 of every verified read, once the counter line is
  /// authentic: unpack the MAC lane (SEC-DED decode on the separate-MAC
  /// path), verify the MAC under `pad` = pad_for(addr, `counter`), run
  /// flip-and-check on a mismatch, then decrypt. Const and
  /// accounting-free — each read path commits the result itself.
  ReadResult decrypt_verified(std::uint64_t block, std::uint64_t counter,
                              std::uint64_t pad) const;
  /// Promotion pulse: true when this shared read of a non-`resident`
  /// counter line must decline to the exclusive path.
  bool pulse_declines(bool resident) const noexcept;
  std::uint64_t data_mac(std::uint64_t block, std::uint64_t counter,
                         const DataBlock& ciphertext) const;
  void trace(TraceEvent::Kind kind, Status outcome,
             std::uint64_t block) const noexcept {
    if (trace_) trace_->record(kind, outcome, block, trace_shard_);
  }

  /// ------------------------------------------------------------------
  /// Delta-snapshot plane.
  /// ------------------------------------------------------------------
  /// One relaxed fetch_or per block store — the entire steady-state cost
  /// of dirty tracking. Covers every backing-store mutation path
  /// (writes, group re-encryptions, scrub heals, rotations, restores)
  /// because they all funnel through store_block/store_blocks.
  void mark_dirty(std::uint64_t block) noexcept {
    const std::uint64_t g = block / granule_blocks_;
    dirty_words_[g >> 6].fetch_or(std::uint64_t{1} << (g & 63),
                                  std::memory_order_relaxed);
  }
  void mark_all_dirty() noexcept;
  void clear_dirty() noexcept;
  delta::Geometry delta_geometry() const noexcept;
  delta::ConstSections delta_sections() const noexcept;
  /// Seal over a root-level byte string (the delta chain's base digest).
  std::uint64_t seal_root_bytes(
      std::span<const std::uint8_t> root_bytes) const noexcept;
  /// Seal of the engine's CURRENT root level (flushes the tree cache).
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
  /// Mutable: relaxed-atomic observability is written from the const
  /// shared read path (the cell's own contract — see common/metrics.h).
  mutable MetricsCell metrics_;
  /// Promotion pulse for read_block_shared: a relaxed counter of
  /// non-resident shared reads; every kSharedProbePulse-th one declines
  /// so the exclusive retry warms the verified frontier.
  mutable std::atomic<std::uint64_t> shared_cold_reads_{0};
  TraceRing* trace_ = nullptr;
  std::uint16_t trace_shard_ = 0;
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
  };
  BatchScratch scratch_;
  /// Staging-storage recycler for the restore path: commit_restore
  /// parks the replaced state vectors here (a rejected or discarded
  /// staging parks its own) and the next stage_restore adopts them, so
  /// steady-state crash/restore loops allocate (and page-fault) nothing
  /// — the dominant cost of a large restore once the stream calls are
  /// chunked. Mutable because stage_restore is const by contract (it
  /// never changes engine *state*) yet runs only under the engine's
  /// exclusive synchronization, like every snapshot entry point.
  struct SnapshotArena {
    std::vector<DataBlock> ciphertext;
    std::vector<EccLane> lanes;
    std::vector<std::uint64_t> macs;
    std::vector<std::uint8_t> counter_store;
  };
  mutable SnapshotArena snap_arena_;

  /// Dirty plane: bit per granule, relaxed atomics so the const shared
  /// read path's callers never contend with it (only store paths touch
  /// it, and those run under exclusive synchronization anyway).
  std::uint64_t granule_blocks_ = 1;
  std::uint64_t num_granules_ = 0;
  std::uint64_t dirty_word_count_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> dirty_words_;
  /// Chain state: epoch counts alignment points; base_seal_ is the root
  /// seal at the last one; has_base_ false = no delta base (fresh
  /// engine, broken chain after rotation or failed restore).
  std::uint64_t snap_epoch_ = 0;
  std::uint64_t base_seal_ = 0;
  bool has_base_ = false;
};

}  // namespace secmem
