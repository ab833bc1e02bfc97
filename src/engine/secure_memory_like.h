// SecureMemoryLike — the interface every secure-memory engine implements.
//
// SecureMemory (single-threaded) and ShardedSecureMemory (partitioned,
// shard-parallel; one shard is the single-lock configuration) expose the
// same operations; this abstract base lets tools and benches pick an
// engine at runtime (see make_engine) instead of duplicating per-engine
// branches.
//
// The operation result types live at namespace scope here so the
// interface can name them; the concrete engines re-export them as nested
// aliases (SecureMemory::ReadResult, ...) for source compatibility.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "crypto/ctr_keystream.h"  // DataBlock

namespace secmem {

/// Outcome of a verified read (alias of the unified Status vocabulary).
using ReadStatus = Status;

const char* read_status_name(ReadStatus status) noexcept;

struct [[nodiscard]] ReadResult {
  ReadStatus status = Status::kOk;
  DataBlock data{};  ///< plaintext; zeroed unless status is kOk/kCorrected*
  std::uint64_t mac_evaluations = 0;  ///< flip-and-check work performed
};

/// One request of a write_blocks batch.
struct BlockWrite {
  std::uint64_t block;
  DataBlock data;
};

/// Outcome of scrubbing one block (paper §3.3).
enum class [[nodiscard]] ScrubStatus : std::uint8_t {
  kClean,            ///< quick parity checks passed (or full check did)
  kRepairedMacField, ///< single-bit MAC-lane fault healed
  kRepairedData,     ///< 1-2 bit data fault healed
  kUncorrectable,    ///< fault beyond correction; data NOT healed
  kCounterTampered,  ///< counter storage failed tree authentication
};

const char* scrub_status_name(ScrubStatus status) noexcept;
Status to_status(ScrubStatus status) noexcept;

struct ScrubReport {
  std::uint64_t scanned = 0;
  std::uint64_t quick_clean = 0;   ///< passed the cheap parity checks
  std::uint64_t repaired_mac = 0;
  std::uint64_t repaired_data = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t counter_tampered = 0;
};

/// Aggregate operational counters — a point-in-time copy assembled from
/// the engine's MetricsCell(s); see publish_metrics() for the richer
/// registry-backed view (histograms, per-shard breakdown).
struct EngineStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t corrected_data = 0;
  std::uint64_t corrected_mac_field = 0;
  std::uint64_t corrected_word = 0;
  std::uint64_t integrity_violations = 0;
  std::uint64_t counter_tampers = 0;
  std::uint64_t group_reencryptions = 0;
  std::uint64_t mac_evaluations = 0;  ///< flip-and-check work
  std::uint64_t tree_cache_hits = 0;    ///< truncated authentication walks
  std::uint64_t tree_cache_misses = 0;  ///< full root-reaching walks
};

/// Build an EngineStats from hot-path cells (relaxed reads, no locks).
EngineStats engine_stats_from(
    const std::vector<const MetricsCell*>& cells) noexcept;

class SecureMemoryLike {
 public:
  virtual ~SecureMemoryLike() = default;

  virtual std::uint64_t size_bytes() const noexcept = 0;
  virtual std::uint64_t num_blocks() const noexcept = 0;

  /// Write one 64-byte block of plaintext. A block write cannot fail and
  /// returns kOk; callers still consume the Status, the one outcome type
  /// of every entry point. No mutation path throws on engine state —
  /// only argument errors (out-of-range blocks) do.
  [[nodiscard]] virtual Status write_block(std::uint64_t block,
                                           const DataBlock& plaintext) = 0;
  /// Verified read of one 64-byte block.
  virtual ReadResult read_block(std::uint64_t block) = 0;

  /// Byte-level convenience (read-modify-write across blocks). Returns
  /// the most severe block status encountered: status_ok() values mean
  /// the operation completed (possibly with corrections); failure values
  /// mean it aborted. `write_bytes` is all-or-nothing: a failure status
  /// leaves the region exactly as it was. Ranges outside the region
  /// (including addr+len overflow) throw std::out_of_range.
  virtual Status write_bytes(std::uint64_t addr,
                             std::span<const std::uint8_t> bytes) = 0;
  virtual Status read_bytes(std::uint64_t addr,
                            std::span<std::uint8_t> out) = 0;

  /// ------------------------------------------------------------------
  /// Batch block I/O.
  /// ------------------------------------------------------------------
  /// Semantically equivalent to looping the single-block calls in request
  /// order, but each engine amortizes work across the batch: crypto
  /// kernels run over the whole request set (8-wide AES pads,
  /// deduplicated tree-leaf verifications, one counter-line sync per dirty
  /// line) and sharded engines take each shard lock once per batch. Unlike the single-block
  /// calls, ALL block indices are validated up front — std::out_of_range
  /// is thrown before anything is mutated.
  [[nodiscard]] virtual std::vector<ReadResult> read_blocks(
      std::span<const std::uint64_t> blocks) = 0;
  /// Returns the most severe per-write outcome (kOk: block writes cannot
  /// fail).
  [[nodiscard]] virtual Status write_blocks(
      std::span<const BlockWrite> writes) = 0;

  /// Scrubbing sweep (paper §3.3): quick parity scan unless `deep`.
  virtual ScrubStatus scrub_block(std::uint64_t block,
                                  bool deep = false) = 0;
  virtual ScrubReport scrub_all(bool deep = false) = 0;

  /// Re-key under a new master secret; false leaves the region intact.
  /// The verdict must be consumed — a caller that assumes success after a
  /// refused rotation keeps serving data under the key it meant to retire.
  [[nodiscard]] virtual bool rotate_master_key(std::uint64_t new_master) = 0;

  /// Persistence (NVMM / hibernate model); see SecureMemory for the
  /// image-format and threat-model contract. `save` returns kOk when the
  /// full image was emitted and kSnapshotIoError when the stream failed.
  /// A false restore means the image was rejected (tamper, truncation)
  /// before any byte applied: the region is exactly as it was. The
  /// verdict must be consumed.
  [[nodiscard]] virtual Status save(std::ostream& out) = 0;
  [[nodiscard]] virtual bool restore(std::istream& in) = 0;

  /// ------------------------------------------------------------------
  /// Incremental (delta) persistence.
  /// ------------------------------------------------------------------
  /// `save_delta` emits a COPY/ADD delta image against the engine's last
  /// snapshot alignment point (the most recent save/restore/
  /// save_delta/restore_delta) from the dirty-granule bitmap: only the
  /// block groups touched since that point ship as payload. When no base
  /// is known (fresh engine, or after a key rotation) it falls back to a
  /// full save() image — callers always get something restore_delta
  /// accepts. A caller that only wants full images calls save() and
  /// restore().
  ///
  /// `restore_delta` accepts both image kinds, dispatching on the magic.
  /// Either is verified *in full* — a delta through its header/command
  /// MAC, base seal and command validation — before a single byte is
  /// applied, so a false return leaves the region EXACTLY as it was (the
  /// crash/restore-loop contract: a failed restore of delta N never
  /// invalidates applying a clean delta N afterwards). See SECURITY.md.
  [[nodiscard]] virtual Status save_delta(std::ostream& out) = 0;
  [[nodiscard]] virtual bool restore_delta(std::istream& in) = 0;

  /// ------------------------------------------------------------------
  /// Observability.
  /// ------------------------------------------------------------------
  /// Point-in-time aggregate counters (lock-free; see EngineStats).
  virtual EngineStats stats() const noexcept = 0;
  virtual void reset_stats() noexcept = 0;

  /// Fold this engine's counters and histograms into `registry` under
  /// `prefix` ("engine" → "engine.reads", sharded engines additionally
  /// publish "engine.shardN.*"). Adds to existing registry contents.
  virtual void publish_metrics(StatRegistry& registry,
                               const std::string& prefix = "engine")
      const = 0;

  /// Attach (or detach with nullptr) a post-mortem trace ring; every
  /// subsequent operation records its outcome. The ring must outlive the
  /// attachment and is shared across shards in sharded engines.
  virtual void attach_trace(TraceRing* ring) = 0;
};

/// Which concrete engine make_engine() instantiates.
enum class EngineKind : std::uint8_t {
  kPlain,    ///< SecureMemory — single-threaded callers only
  kSharded,  ///< ShardedSecureMemory — any thread count, shard-parallel
};

const char* engine_kind_name(EngineKind kind) noexcept;
/// Parse "plain" (alias "single") | "sharded"; false on anything else.
bool parse_engine_kind(const std::string& text, EngineKind& out) noexcept;

/// Instantiate an engine. `shards` only matters for kSharded (0 picks 8).
std::unique_ptr<SecureMemoryLike> make_engine(
    const struct SecureMemoryConfig& config, EngineKind kind,
    unsigned shards = 0);

}  // namespace secmem
