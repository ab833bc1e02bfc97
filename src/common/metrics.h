// secmem::metrics — the hot-path half of the observability layer.
//
// StatRegistry (common/stats.h) is the named, exportable view; it is a
// plain map and must not be touched from concurrent hot paths. This file
// provides what the engines record into instead:
//
//  - MetricsCell: a cache-line-aligned block of relaxed atomic counters
//    and log2 histograms, indexed by fixed enums — one increment per
//    event, no locks, no string hashing. The increment is chosen by the
//    constness of the cell (see the class comment): a writer that owns
//    the cell exclusively counts with plain loads and stores, a shared
//    writer with fetch_add into its own thread's stripe. Readable from
//    any thread either way.
//  - MetricsSink: N cells (one per shard or per thread) aggregated on
//    read, so concurrent writers never share a cache line.
//  - TraceRing: a bounded ring of recent events (kind, block, shard,
//    outcome) for post-mortem debugging of integrity violations and
//    scrub findings. Mutex-guarded: tracing is an opt-in debug facility,
//    engines skip it entirely (one branch) when no ring is attached.
//
// publish() bridges the two worlds: it folds a sink's current totals into
// a StatRegistry under a dotted prefix, where they become part of the
// snapshot/diff/JSON pipeline.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace secmem {

/// Fixed ids for the engines' hot-path event counters. metric_name()
/// gives the dotted-path suffix each publishes under.
enum class MetricId : unsigned {
  kReads,                ///< verified block reads
  kWrites,               ///< encrypted block writes
  kByteReads,            ///< byte-level read() calls
  kByteWrites,           ///< byte-level write() calls
  kCorrectedData,        ///< reads healed by flip-and-check
  kCorrectedMacField,    ///< reads with a repaired MAC-lane bit
  kCorrectedWord,        ///< reads with SEC-DED-corrected words
  kIntegrityViolations,  ///< uncorrectable/tampered reads
  kCounterTampers,       ///< counter lines failing tree authentication
  kGroupReencryptions,   ///< delta-scheme group re-encryption events
  kMacEvaluations,       ///< flip-and-check MAC computations
  kScrubbedBlocks,       ///< blocks swept by scrub_block/scrub_all
  kScrubRepairs,         ///< scrubbed blocks healed in place
  kScrubUncorrectable,   ///< scrubbed blocks beyond repair
  kKeyRotations,         ///< successful master-key rotations
  kRestores,             ///< successful restores from a saved image
  kTreeCacheHits,        ///< tree walks truncated by the verified frontier
  kTreeCacheMisses,      ///< tree walks that reached the on-chip root
  kTreeCacheFills,       ///< nodes installed into the verified frontier
  kTreeCacheAdmitDeclines,  ///< verified-path fills the admission filter declined
  kTreeCacheWritebacks,  ///< dirty nodes written back (evict or flush)
  kTreeCacheFlushes,     ///< explicit flush barriers
  kTreeCacheProbeHits,   ///< read-side probes answered by a resident line
  kTreeCacheProbeMisses, ///< read-side probes that walked to the root
  kSharedReads,          ///< reads served on the seqlock shared fast path
  kSharedReadDeclines,   ///< shared-path reads bounced to the writer lock
  kDeltaSaves,           ///< incremental (COPY/ADD) snapshot images emitted
  kDeltaSaveFallbacks,   ///< save_delta calls that emitted a full image
  kDeltaRestores,        ///< delta images verified and applied in place
  kDeltaRejects,         ///< rejected restore_delta/restore_timed calls
  kCount_,               ///< sentinel
};
inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(MetricId::kCount_);

const char* metric_name(MetricId id) noexcept;

/// Fixed ids for the engines' hot-path histograms (all log2-bucketed).
enum class EngineHistId : unsigned {
  kMacEvalsPerCorrection,  ///< flip-and-check cost per corrective read
  kReadLatencyNs,          ///< verified-read wall time (config.time_ops)
  kWriteLatencyNs,         ///< block-write wall time (config.time_ops)
  kByteReadBytes,          ///< byte-level read() request size
  kByteWriteBytes,         ///< byte-level write() request size
  kReencryptedBlocks,      ///< blocks rewritten per group re-encryption
  kDeltaImageBytes,        ///< bytes per emitted delta image
  kDeltaDirtyGranules,     ///< dirty granules encoded per delta save
  kCount_,                 ///< sentinel
};
inline constexpr std::size_t kEngineHistCount =
    static_cast<std::size_t>(EngineHistId::kCount_);
/// log2 buckets: [0], [1], [2,3), ... — 40 buckets cover up to ~2^39.
inline constexpr std::size_t kEngineHistBuckets = 40;

const char* engine_hist_name(EngineHistId id) noexcept;

/// One writer's slice of the metrics plane. Every counter and bucket is a
/// relaxed atomic; readers may observe them mid-operation (monotonic but
/// not a cross-counter snapshot), which is exactly the contract a stats
/// poller wants on a hot path.
///
/// Increment by constness. add()/sample() on a NON-CONST cell are the
/// single-writer form: a relaxed load plus a relaxed store, no lock
/// prefix. Holding the cell non-const asserts that no other thread
/// increments it the same way meanwhile — its owner runs under an
/// exclusive lock (a shard's SeqWriteLock) or owns it outright. On a
/// CONST cell they are a relaxed fetch_add into the calling thread's
/// stripe (one per thread_slot(), common/thread_annotations.h), safe
/// against any number of concurrent incrementers, and concurrent shared
/// readers write no line another reader writes. Owners pass the
/// constness on: a const member function of the owner sees a const
/// cell, so anything reachable from a shared (const) path counts
/// atomically without being told to, and the cheap form cannot be
/// reached from it. A cell written by concurrent non-const members
/// (ShardedSecureMemory's region cell) is declared const. The two forms
/// write disjoint words, so they may run at the same time.
class MetricsCell {
 public:
  void add(MetricId id, std::uint64_t n = 1) noexcept {
    bump(owned_.counters[static_cast<std::size_t>(id)], n);
  }
  void add(MetricId id, std::uint64_t n = 1) const noexcept {
    stripes_[thread_slot()].counters[static_cast<std::size_t>(id)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void sample(EngineHistId hist, std::uint64_t v) noexcept {
    bump(owned_.hists[static_cast<std::size_t>(hist)][log2_bucket(v)], 1);
  }
  void sample(EngineHistId hist, std::uint64_t v) const noexcept {
    stripes_[thread_slot()]
        .hists[static_cast<std::size_t>(hist)][log2_bucket(v)]
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// The single-writer count plus every stripe's.
  std::uint64_t value(MetricId id) const noexcept;
  std::uint64_t hist_bucket(EngineHistId hist,
                            std::size_t bucket) const noexcept;

  /// Zero every counter and bucket, stripes included (relaxed stores;
  /// callers reset while quiescent or accept losing concurrent
  /// increments). Const like the atomic increments: it races nothing,
  /// so a const cell can be reset.
  void reset() const noexcept;

  static std::size_t log2_bucket(std::uint64_t v) noexcept;

 private:
  /// One writer's counters and buckets, on cache lines of their own so
  /// cells in a MetricsSink and stripes of one cell never false-share.
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kMetricCount> counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kEngineHistBuckets>,
               kEngineHistCount>
        hists{};
  };

  /// The single-writer increment: no read-modify-write instruction.
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// The non-const form's target. Mutable so the const reset() clears it.
  mutable Stripe owned_;
  /// The const forms' targets, indexed by thread_slot().
  mutable std::array<Stripe, kThreadSlots> stripes_{};
};

/// A fixed set of MetricsCells — per shard or per worker thread —
/// aggregated on read. Each cell's writer calls sink.cell(i).add(...)
/// (the single-writer form: one writer per cell); readers call
/// total()/publish() without synchronizing with writers.
class MetricsSink {
 public:
  explicit MetricsSink(std::size_t cells = 1) : cells_(cells ? cells : 1) {}

  std::size_t cell_count() const noexcept { return cells_.size(); }
  MetricsCell& cell(std::size_t i) { return cells_[i]; }
  const MetricsCell& cell(std::size_t i) const { return cells_[i]; }

  std::uint64_t total(MetricId id) const noexcept;
  void reset() noexcept;

  /// Fold current totals into `registry` under `prefix` (e.g. "engine" →
  /// "engine.reads"). Adds to whatever the registry already holds, so
  /// publish into a fresh registry (or diff snapshots) for absolute
  /// values.
  void publish(StatRegistry& registry, const std::string& prefix) const;

 private:
  std::vector<MetricsCell> cells_;
};

/// Publish an arbitrary group of cells (e.g. one per shard, owned by the
/// shards themselves) into a registry — the aggregation primitive behind
/// both MetricsSink::publish and ShardedSecureMemory.
void publish_cells(const std::vector<const MetricsCell*>& cells,
                   StatRegistry& registry, const std::string& prefix);

/// One entry of the post-mortem trace.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kRead,
    kWrite,
    kByteRead,
    kByteWrite,
    kScrub,
    kReencrypt,
    kKeyRotation,
    kRestore,
  };
  Kind kind = Kind::kRead;
  Status outcome = Status::kOk;
  std::uint16_t shard = 0;   ///< owning shard (0 for unsharded engines)
  std::uint64_t block = 0;   ///< shard-local block index
  std::uint64_t seq = 0;     ///< global record order, assigned by the ring
};

const char* trace_kind_name(TraceEvent::Kind kind) noexcept;

/// Bounded ring buffer of recent TraceEvents; the newest `capacity`
/// events win. Thread-safe via a mutex (the ring state is
/// SECMEM_GUARDED_BY it, so lock-free access is a clang build error) —
/// attach one only when debugging (engines test a single pointer when no
/// ring is attached).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
    ring_.resize(capacity_);
  }

  void record(TraceEvent::Kind kind, Status outcome, std::uint64_t block,
              std::uint16_t shard = 0) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Total events ever recorded (>= size of snapshot()).
  std::uint64_t recorded() const noexcept;
  /// Retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;
  void clear() noexcept;
  /// One line per retained event, oldest first — the post-mortem dump
  /// hook for integrity violations and scrub reports.
  void dump(std::ostream& os) const;

 private:
  const std::size_t capacity_;  ///< immutable — readable without the lock
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ SECMEM_GUARDED_BY(mu_);
  std::uint64_t next_ SECMEM_GUARDED_BY(mu_) = 0;  ///< total recorded
};

}  // namespace secmem
