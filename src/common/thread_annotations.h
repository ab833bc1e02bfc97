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
// Every lock is a secmem::Mutex or secmem::SharedMutex so it carries a
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

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

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

/// Lock-ordering declarations (deadlock avoidance documentation).
#define SECMEM_ACQUIRED_BEFORE(...) \
  SECMEM_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define SECMEM_ACQUIRED_AFTER(...) \
  SECMEM_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// The function must be called with the capability held (exclusively /
/// shared) and does not release it.
#define SECMEM_REQUIRES(...) \
  SECMEM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define SECMEM_REQUIRES_SHARED(...) \
  SECMEM_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define SECMEM_ACQUIRE(...) \
  SECMEM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define SECMEM_ACQUIRE_SHARED(...) \
  SECMEM_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define SECMEM_RELEASE(...) \
  SECMEM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define SECMEM_RELEASE_SHARED(...) \
  SECMEM_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define SECMEM_TRY_ACQUIRE(b, ...) \
  SECMEM_THREAD_ANNOTATION__(try_acquire_capability(b, __VA_ARGS__))
#define SECMEM_TRY_ACQUIRE_SHARED(b, ...) \
  SECMEM_THREAD_ANNOTATION__(try_acquire_shared_capability(b, __VA_ARGS__))

/// The function must be called WITHOUT the capability held.
#define SECMEM_EXCLUDES(...) \
  SECMEM_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define SECMEM_RETURN_CAPABILITY(x) \
  SECMEM_THREAD_ANNOTATION__(lock_returned(x))

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
  bool try_lock() SECMEM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Capability-annotated reader/writer mutex.
class SECMEM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() SECMEM_ACQUIRE() { mu_.lock(); }
  void unlock() SECMEM_RELEASE() { mu_.unlock(); }
  bool try_lock() SECMEM_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() SECMEM_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() SECMEM_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() SECMEM_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
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

/// RAII shared (reader) lock over a SharedMutex.
class SECMEM_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) SECMEM_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() SECMEM_RELEASE() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over a SharedMutex.
class SECMEM_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) SECMEM_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() SECMEM_RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Capability-annotated seqlock: a reader/writer mutex plus a published
/// generation counter. This is the read-mostly tier of the lock
/// vocabulary (engine/sharded_memory.h): readers take the shared side
/// (so every data access is lock-synchronized — no racy textbook-seqlock
/// reads, TSan- and standards-clean), writers take the exclusive side,
/// and the generation gives lock-free *observers* a way to detect
/// writer activity without touching the mutex at all:
///
///  - generation() is odd while a writer holds the lock (bumped to odd
///    on acquire, even on release), so write_in_progress(g) is `g & 1`.
///  - Two equal, even generations bracket a span with no completed or
///    in-flight write — the optimistic-snapshot validation the
///    cross-shard read path uses: snapshot each shard's generation,
///    read shard by shard under short shared locks, and accept iff
///    every generation is unchanged (retry otherwise).
///
/// Satisfies BasicLockable on its exclusive side, so the ordered
/// multi-lock machinery (std::unique_lock via engine/lock_table.h)
/// bumps generations exactly like a SeqWriteLock does.
class SECMEM_CAPABILITY("seqlock") SeqLock {
 public:
  SeqLock() = default;
  SeqLock(const SeqLock&) = delete;
  SeqLock& operator=(const SeqLock&) = delete;

  void lock() SECMEM_ACQUIRE() {
    mu_.lock();
    bump();  // odd: write in progress
  }
  void unlock() SECMEM_RELEASE() {
    bump();  // even: quiescent
    mu_.unlock();
  }
  bool try_lock() SECMEM_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    bump();
    return true;
  }
  void lock_shared() SECMEM_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() SECMEM_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() SECMEM_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  /// Lock-free probe of writer activity; pairs with the release store in
  /// bump() so a reader that sees generation G also sees every write the
  /// G-bumping writer made before publishing G.
  std::uint64_t generation() const noexcept {
    return gen_.load(std::memory_order_acquire);
  }
  static bool write_in_progress(std::uint64_t generation) noexcept {
    return (generation & 1) != 0;
  }

 private:
  void bump() noexcept {
    // Only ever called with the exclusive side held, so the load cannot
    // race another bump; the release publishes the writer's mutations.
    gen_.store(gen_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

  std::shared_mutex mu_;
  std::atomic<std::uint64_t> gen_{0};
};

/// RAII shared (reader) lock over a SeqLock — the checked fast path for
/// read-mostly data.
class SECMEM_SCOPED_CAPABILITY SeqReadLock {
 public:
  explicit SeqReadLock(SeqLock& mu) SECMEM_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SeqReadLock() SECMEM_RELEASE() { mu_.unlock_shared(); }
  SeqReadLock(const SeqReadLock&) = delete;
  SeqReadLock& operator=(const SeqReadLock&) = delete;

 private:
  SeqLock& mu_;
};

/// RAII exclusive (writer) lock over a SeqLock; bumps the generation on
/// both edges via SeqLock::lock()/unlock().
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
