// ShardPool — the sharded engine's persistent fan-out workers.
//
// Region-wide operations (scrub_all, rotate_master_key, the commit half
// of a full restore, and all three phases of a delta replication) run
// one task per shard. Spawning and joining a thread per call cost
// 72-148 us on a 4-CPU host, more than a steady-state delta moves, so
// the workers are started once, with the engine, and park between jobs
// on an atomic wait (a futex on Linux): an idle pool costs no CPU.
//
// A job is run(n, fn): fn(0..n-1) each run exactly once, drained from a
// shared cursor by the calling thread and every worker, and run()
// returns once all n have finished and every worker has checked in.
//
// One job at a time. A caller that finds the pool held by another
// thread runs all n tasks itself instead of waiting: jobs hold locks
// (restore fans out its commit while holding every shard lock), so a
// caller that waited for the pool could deadlock against a job blocked
// on a lock that caller holds — a restore against a scrub_all task
// waiting for a shard the restore has locked.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace secmem {

class ShardPool {
 public:
  /// Starts `workers` threads; 0 runs every job on the caller.
  explicit ShardPool(unsigned workers);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Helper threads for jobs of up to `tasks` tasks: the caller drains
  /// the cursor too, so min(tasks, hardware threads) - 1 puts one thread
  /// per core on a job, and a one-core host (or an unknown topology)
  /// gets none.
  static unsigned helpers_for(unsigned tasks) noexcept;

  /// Run fn(i) for every i in [0, n) and return when all have run. The
  /// tasks run concurrently, so fn must be safe to call from several
  /// threads for distinct i. Runs on the caller alone when the pool is
  /// busy, has no workers, or n <= 1. On the pool, a task that throws
  /// does not stop the others; the first exception is rethrown here
  /// once every worker has checked in.
  template <typename Fn>
  void run(unsigned n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_erased(n, const_cast<void*>(static_cast<const void*>(&fn)),
               [](void* ctx, unsigned i) { (*static_cast<F*>(ctx))(i); });
  }

 private:
  using Task = void (*)(void* ctx, unsigned i);

  void run_erased(unsigned n, void* ctx, Task task);
  /// Claim and run tasks off the cursor until it passes n_, keeping the
  /// first exception a task throws in error_.
  void drain() noexcept;
  void worker_loop();
  /// Wake every worker to exit and join it.
  void stop() noexcept;

  /// Held by the thread whose job is in flight.
  std::atomic<bool> busy_{false};
  /// Bumped once per job (and once at shutdown); workers wait on it.
  std::atomic<std::uint32_t> generation_{0};
  /// Workers that have not yet checked in for the current job.
  std::atomic<std::uint32_t> pending_{0};
  std::atomic<unsigned> cursor_{0};
  // The job. Written by the caller before it bumps generation_ and read
  // by workers after they observe the bump; the next job cannot rewrite
  // them until every worker has checked in (pending_ == 0).
  unsigned n_ = 0;
  void* ctx_ = nullptr;
  Task task_ = nullptr;
  bool stop_ = false;
  /// A task's exception for the caller; failed_ picks the one writer,
  /// and the caller reads it after every worker has checked in.
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace secmem
