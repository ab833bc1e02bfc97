// Clang Thread Safety Analysis vocabulary for the secmem engines.
//
// The thread-safe engine (engine/sharded_memory.h) and the observability
// plane coordinate through mutexes whose discipline was previously
// enforced only by review and TSan. This header makes the
// discipline *compiler-checked*: under clang with -Wthread-safety every
// access to a SECMEM_GUARDED_BY member outside its lock is a build error
// (scripts/ci.sh builds src/ with -Wthread-safety -Werror when clang is
// available); under other compilers the macros expand to nothing and the
// annotated wrappers cost exactly what std::mutex costs.
//
// Policy (enforced by tools/secmem-lint, rule `raw-mutex`): no naked
// std::mutex / std::shared_mutex anywhere in src/ outside this header.
// Every lock is a secmem::Mutex or secmem::SeqLock so it carries a
// capability the analysis can track. To annotate a new lock:
//
//   Mutex mu_;
//   Thing state_ SECMEM_GUARDED_BY(mu_);     // data under the lock
//   void poke() { MutexLock lock(mu_); state_.poke(); }  // checked
//
// Functions that are lock-free by *contract* (relaxed-atomic metrics
// reads) or that acquire a runtime-selected set of locks (ordered
// multi-shard acquisition, see engine/lock_table.h) are outside the
// static analysis' power; mark them SECMEM_NO_THREAD_SAFETY_ANALYSIS
// with a comment saying why, and keep them covered by the TSan preset.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SECMEM_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef SECMEM_THREAD_ANNOTATION__
#define SECMEM_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

/// A type that is a lockable capability ("mutex", "shared_mutex", ...).
#define SECMEM_CAPABILITY(x) SECMEM_THREAD_ANNOTATION__(capability(x))

/// An RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SECMEM_SCOPED_CAPABILITY SECMEM_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define SECMEM_GUARDED_BY(x) SECMEM_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the given capability.
#define SECMEM_PT_GUARDED_BY(x) SECMEM_THREAD_ANNOTATION__(pt_guarded_by(x))

/// The function must be called with the capability held and does not
/// release it.
#define SECMEM_REQUIRES(...) \
  SECMEM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define SECMEM_ACQUIRE(...) \
  SECMEM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define SECMEM_ACQUIRE_SHARED(...) \
  SECMEM_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define SECMEM_RELEASE(...) \
  SECMEM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define SECMEM_RELEASE_SHARED(...) \
  SECMEM_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Escape hatch: the function's locking is beyond static analysis
/// (runtime-indexed lock sets, contract-level lock-freedom). Always pair
/// with a comment explaining why, and keep TSan coverage.
#define SECMEM_NO_THREAD_SAFETY_ANALYSIS \
  SECMEM_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace secmem {

/// Capability-annotated exclusive mutex. Drop-in for std::mutex (also
/// satisfies BasicLockable, so std::unique_lock<Mutex> works where a
/// movable guard is needed — those acquisitions are invisible to the
/// analysis; see SECMEM_NO_THREAD_SAFETY_ANALYSIS above).
class SECMEM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SECMEM_ACQUIRE() { mu_.lock(); }
  void unlock() SECMEM_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII exclusive lock over a Mutex — the checked way to take a lock.
class SECMEM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SECMEM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SECMEM_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Per-thread slots shared by the reader indicator of every SeqLock and
/// the const-increment stripes of every MetricsCell (common/metrics.h).
/// More live threads than slots is correct, only slower: threads that
/// share a slot share its cache lines again.
inline constexpr std::size_t kThreadSlots = 16;

namespace detail {
/// Claim the lowest free slot for the calling thread, released again
/// when the thread exits; with every slot taken, share one round-robin.
inline std::size_t claim_thread_slot() noexcept {
  static_assert(kThreadSlots <= 32, "one bit per slot in a 32-bit mask");
  static std::atomic<std::uint32_t> taken{0};
  static std::atomic<std::size_t> overflow{0};
  struct Owner {
    std::uint32_t bit = 0;
    ~Owner() { taken.fetch_and(~bit, std::memory_order_relaxed); }
  };
  std::uint32_t mask = taken.load(std::memory_order_relaxed);
  for (std::size_t slot = 0; slot < kThreadSlots;) {
    const std::uint32_t bit = std::uint32_t{1} << slot;
    if ((mask & bit) != 0) {
      ++slot;
    } else if (taken.compare_exchange_weak(mask, mask | bit,
                                           std::memory_order_relaxed)) {
      thread_local Owner owner;
      owner.bit = bit;
      return slot;
    }
  }
  return overflow.fetch_add(1, std::memory_order_relaxed) % kThreadSlots;
}
}  // namespace detail

/// The calling thread's slot in [0, kThreadSlots), fixed for the
/// thread's lifetime: live threads get slots of their own while there
/// are at most kThreadSlots of them.
inline std::size_t thread_slot() noexcept {
  thread_local std::size_t slot = kThreadSlots;  // not yet claimed
  if (slot == kThreadSlots) [[unlikely]]
    slot = detail::claim_thread_slot();
  return slot;
}

/// Capability-annotated reader/writer lock with a per-thread reader
/// indicator. This is the read-mostly tier of the lock vocabulary
/// (engine/sharded_memory.h).
///
/// Readers write only their own thread's slot. A reader increments its
/// slot (seq_cst), then checks `writer_`; while no writer is active that
/// is the whole acquisition, and the release decrements the same slot. A
/// reader that finds a writer active backs its increment out and takes
/// the mutex's shared side instead, so it waits for the writer and then
/// sees the write. A writer takes the mutex exclusively, sets `writer_`
/// (seq_cst), and waits until every slot drains before it touches
/// anything: the store-then-load pairs on both sides guarantee that
/// either the reader sees `writer_` or the writer sees the reader's
/// count. The release store that clears `writer_` publishes the writer's
/// mutations to the next fast-path reader. Every data access therefore
/// stays lock-synchronized — no racy textbook-seqlock reads, TSan- and
/// standards-clean. This is the visible-readers scheme of BRAVO (Dice &
/// Kogan, USENIX ATC 2019) with one fixed table per lock.
///
/// Satisfies BasicLockable on its exclusive side, so the ordered
/// multi-lock machinery (std::unique_lock via engine/lock_table.h) takes
/// it exactly like a SeqWriteLock does. The shared side hands the reader
/// a ticket to give back, so take it through SeqReadLock.
class SECMEM_CAPABILITY("seqlock") SeqLock {
  struct alignas(64) ReaderSlot {
    std::atomic<std::uint64_t> count{0};
  };

 public:
  /// What a reader holds: the slot it counted into, or nullptr when it
  /// holds the mutex's shared side.
  using ReadTicket = ReaderSlot*;

  SeqLock() = default;
  SeqLock(const SeqLock&) = delete;
  SeqLock& operator=(const SeqLock&) = delete;

  void lock() SECMEM_ACQUIRE() {
    mu_.lock();
    exclude_readers();
  }
  void unlock() SECMEM_RELEASE() {
    writer_.store(false, std::memory_order_release);
    mu_.unlock();
  }
  [[nodiscard]] ReadTicket lock_shared() SECMEM_ACQUIRE_SHARED() {
    ReaderSlot& slot = readers_[thread_slot()];
    slot.count.fetch_add(1, std::memory_order_seq_cst);
    if (!writer_.load(std::memory_order_seq_cst)) return &slot;
    slot.count.fetch_sub(1, std::memory_order_release);
    mu_.lock_shared();
    return nullptr;
  }
  void unlock_shared(ReadTicket ticket) SECMEM_RELEASE_SHARED() {
    if (ticket != nullptr)
      ticket->count.fetch_sub(1, std::memory_order_release);
    else
      mu_.unlock_shared();
  }

 private:
  /// Pause iterations per slot before the drain wait starts yielding: a
  /// reader holds its slot for one verified read, well under this.
  static constexpr unsigned kSpinsBeforeYield = 64;

  /// With the mutex held: turn new readers away and wait out the ones in
  /// flight.
  void exclude_readers() noexcept {
    writer_.store(true, std::memory_order_seq_cst);
    for (const ReaderSlot& slot : readers_) {
      for (unsigned spins = 0;
           slot.count.load(std::memory_order_seq_cst) != 0; ++spins) {
        if (spins < kSpinsBeforeYield)
          cpu_relax();
        else
          std::this_thread::yield();
      }
    }
  }
  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::shared_mutex mu_;
  std::atomic<bool> writer_{false};
  /// Each on its own line: a reader writes no line another reader writes.
  std::array<ReaderSlot, kThreadSlots> readers_{};
};

/// RAII shared (reader) lock over a SeqLock — the checked fast path for
/// read-mostly data. Remembers which side it entered by.
class SECMEM_SCOPED_CAPABILITY SeqReadLock {
 public:
  explicit SeqReadLock(SeqLock& mu) SECMEM_ACQUIRE_SHARED(mu) : mu_(mu) {
    ticket_ = mu_.lock_shared();
  }
  ~SeqReadLock() SECMEM_RELEASE() { mu_.unlock_shared(ticket_); }
  SeqReadLock(const SeqReadLock&) = delete;
  SeqReadLock& operator=(const SeqReadLock&) = delete;

 private:
  SeqLock& mu_;
  SeqLock::ReadTicket ticket_;
};

/// RAII exclusive (writer) lock over a SeqLock.
class SECMEM_SCOPED_CAPABILITY SeqWriteLock {
 public:
  explicit SeqWriteLock(SeqLock& mu) SECMEM_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~SeqWriteLock() SECMEM_RELEASE() { mu_.unlock(); }
  SeqWriteLock(const SeqWriteLock&) = delete;
  SeqWriteLock& operator=(const SeqWriteLock&) = delete;

 private:
  SeqLock& mu_;
};

}  // namespace secmem
