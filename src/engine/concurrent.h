// Thread-safe facade over SecureMemory.
//
// SecureMemory itself is single-threaded by design (a memory controller
// serializes at the DRAM channel anyway); multi-threaded applications
// wrap it in this coarse-grained monitor. Every mutating operation takes
// the one lock exclusively — simple, correct, and adequate for software
// use of a functional model; see engine/sharded_memory.h for the facade
// that actually scales with threads. The untrusted attack surface is
// deliberately NOT re-exported: concurrent attacker simulation must
// synchronize explicitly via with_exclusive().
//
// The one lock is a secmem::SeqLock, and verified reads take its SHARED
// side through SecureMemory's const read_block_shared() fast path
// (tree-cache probe, relaxed-atomic metrics — no engine mutation), so a
// read-mostly workload runs reader-parallel even under this single-lock
// facade; only the promotion pulse's occasional declined read pays the
// exclusive lock.
//
// The wrapped engine is SECMEM_GUARDED_BY(mu_): under clang's thread
// safety analysis (scripts/ci.sh, -Wthread-safety -Werror) an access
// outside a SeqWriteLock/SeqReadLock is a build error, not a review
// comment.
//
// Metrics bypass the lock entirely: the wrapped engine records into
// relaxed atomics, so stats()/publish_metrics() never contend with the
// datapath (those accessors carry SECMEM_NO_THREAD_SAFETY_ANALYSIS — the
// lock-freedom is the contract, see common/metrics.h).
#pragma once

#include <iosfwd>
#include <utility>

#include "common/thread_annotations.h"
#include "engine/secure_memory.h"
#include "engine/secure_memory_like.h"

namespace secmem {

class ConcurrentSecureMemory : public SecureMemoryLike {
 public:
  explicit ConcurrentSecureMemory(const SecureMemoryConfig& config)
      : memory_(config),
        size_bytes_(memory_.size_bytes()),
        num_blocks_(memory_.num_blocks()) {}

  /// Immutable geometry, cached at construction — readable lock-free.
  std::uint64_t size_bytes() const noexcept override { return size_bytes_; }
  std::uint64_t num_blocks() const noexcept override { return num_blocks_; }

  [[nodiscard]] Status write_block(std::uint64_t block,
                                   const DataBlock& plaintext) override {
    const SeqWriteLock lock(mu_);
    return memory_.write_block(block, plaintext);
  }

  ReadResult read_block(std::uint64_t block) override {
    {
      const SeqReadLock lock(mu_);
      if (const auto res = memory_.read_block_shared(block)) return *res;
    }
    // Declined (cold counter line): the exclusive read warms the
    // verified frontier.
    const SeqWriteLock lock(mu_);
    return memory_.read_block(block);
  }

  /// Batch I/O under one lock acquisition — the batch crypto kernels run
  /// in the wrapped engine. Reads take the shared side first; only the
  /// indices the promotion pulse declined pay the exclusive lock.
  [[nodiscard]] std::vector<ReadResult> read_blocks(
      std::span<const std::uint64_t> blocks) override {
    std::vector<ReadResult> results(blocks.size());
    std::vector<std::uint32_t> declined;
    {
      const SeqReadLock lock(mu_);
      memory_.read_blocks_shared(blocks, results, declined);
    }
    if (!declined.empty()) {
      const SeqWriteLock lock(mu_);
      for (const std::uint32_t d : declined)
        results[d] = memory_.read_block(blocks[d]);
    }
    return results;
  }

  [[nodiscard]] Status write_blocks(std::span<const BlockWrite> writes)
      override {
    const SeqWriteLock lock(mu_);
    return memory_.write_blocks(writes);
  }

  Status write_bytes(std::uint64_t addr,
                     std::span<const std::uint8_t> bytes) override {
    const SeqWriteLock lock(mu_);
    return memory_.write_bytes(addr, bytes);
  }

  Status read_bytes(std::uint64_t addr,
                    std::span<std::uint8_t> out) override {
    {
      // One shared acquisition covers the whole range (single lock — no
      // cross-shard snapshot problem here); the engine defers all
      // accounting until the attempt stands, so a declined block that
      // bounces the range to the exclusive path never double-counts.
      const SeqReadLock lock(mu_);
      if (const auto verdict = memory_.read_bytes_shared(addr, out))
        return *verdict;
    }
    const SeqWriteLock lock(mu_);
    return memory_.read_bytes(addr, out);
  }

  ScrubStatus scrub_block(std::uint64_t block, bool deep = false) override {
    const SeqWriteLock lock(mu_);
    return memory_.scrub_block(block, deep);
  }

  ScrubReport scrub_all(bool deep = false) override {
    const SeqWriteLock lock(mu_);
    return memory_.scrub_all(deep);
  }

  [[nodiscard]] bool rotate_master_key(std::uint64_t new_master) override {
    const SeqWriteLock lock(mu_);
    return memory_.rotate_master_key(new_master);
  }

  /// Lock-free by contract: reads the wrapped engine's relaxed-atomic
  /// cell directly, never contending with the datapath.
  EngineStats stats() const noexcept override
      SECMEM_NO_THREAD_SAFETY_ANALYSIS {
    return memory_.stats();
  }
  void reset_stats() noexcept override SECMEM_NO_THREAD_SAFETY_ANALYSIS {
    memory_.reset_stats();
  }

  void publish_metrics(StatRegistry& registry,
                       const std::string& prefix = "engine") const override
      SECMEM_NO_THREAD_SAFETY_ANALYSIS {
    memory_.publish_metrics(registry, prefix);
  }

  void attach_trace(TraceRing* ring) override {
    const SeqWriteLock lock(mu_);
    memory_.attach_trace(ring);
  }

  /// Persistence under the lock. Note the stream I/O happens while the
  /// lock is held — that is the point: a save must observe a quiescent
  /// region, and a restore must not race concurrent readers.
  [[nodiscard]] Status save(std::ostream& out) override {
    const SeqWriteLock lock(mu_);
    return memory_.save(out);
  }

  [[nodiscard]] bool restore(std::istream& in) override {
    const SeqWriteLock lock(mu_);
    return memory_.restore(in);
  }

  /// Delta persistence — same quiescence contract as save/restore.
  [[nodiscard]] Status save_delta(std::ostream& out) override {
    const SeqWriteLock lock(mu_);
    return memory_.save_delta(out);
  }

  [[nodiscard]] bool restore_delta(std::istream& in) override {
    const SeqWriteLock lock(mu_);
    return memory_.restore_delta(in);
  }

  // Re-expose the base class's std::byte-span / buffer overloads.
  using SecureMemoryLike::read_bytes;
  using SecureMemoryLike::restore;
  using SecureMemoryLike::restore_delta;
  using SecureMemoryLike::save;
  using SecureMemoryLike::save_delta;
  using SecureMemoryLike::write_bytes;

  /// Run `fn(SecureMemory&)` under the exclusive lock — for anything the
  /// facade does not wrap (the untrusted view in tests, ...). Bumps the
  /// generation like any writer.
  template <typename Fn>
  auto with_exclusive(Fn&& fn) {
    const SeqWriteLock lock(mu_);
    return std::forward<Fn>(fn)(memory_);
  }

 private:
  mutable SeqLock mu_;
  SecureMemory memory_ SECMEM_GUARDED_BY(mu_);
  std::uint64_t size_bytes_;
  std::uint64_t num_blocks_;
};

}  // namespace secmem
