#include "engine/shard_pool.h"

#include <algorithm>
#include <utility>

namespace secmem {

unsigned ShardPool::helpers_for(unsigned tasks) noexcept {
  const unsigned threads =
      std::min(tasks, std::max(1u, std::thread::hardware_concurrency()));
  return threads == 0 ? 0 : threads - 1;
}

ShardPool::ShardPool(unsigned workers) {
  // If a thread fails to start, its exception leaves this constructor
  // and no destructor runs: join the workers that did start on the way.
  struct JoinOnUnwind {
    ShardPool& pool;
    bool armed = true;
    ~JoinOnUnwind() {
      if (armed) pool.stop();
    }
  } guard{*this};
  threads_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    threads_.emplace_back([this] { worker_loop(); });
  guard.armed = false;
}

ShardPool::~ShardPool() { stop(); }

void ShardPool::stop() noexcept {
  // No job can be in flight: run() returns only after every worker has
  // checked in, and nothing calls run() on a pool being destroyed.
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardPool::drain() noexcept {
  for (unsigned i = cursor_.fetch_add(1, std::memory_order_relaxed); i < n_;
       i = cursor_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      task_(ctx_, i);
    } catch (...) {
      // Kept for the caller, which rethrows it once every worker has
      // checked in; the first failure wins.
      if (!failed_.exchange(true, std::memory_order_relaxed))
        error_ = std::current_exception();
    }
  }
}

void ShardPool::worker_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_) return;
    drain();
    // The release half publishes this worker's task results to the
    // caller, which acquires pending_ before it returns.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      pending_.notify_one();
  }
}

void ShardPool::run_erased(unsigned n, void* ctx, Task task) {
  if (threads_.empty() || n <= 1 ||
      busy_.exchange(true, std::memory_order_acquire)) {
    for (unsigned i = 0; i < n; ++i) task(ctx, i);
    return;
  }
  n_ = n;
  ctx_ = ctx;
  task_ = task;
  cursor_.store(0, std::memory_order_relaxed);
  pending_.store(static_cast<std::uint32_t>(threads_.size()),
                 std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();

  drain();
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire))
    pending_.wait(left, std::memory_order_acquire);
  const std::exception_ptr error = std::exchange(error_, nullptr);
  failed_.store(false, std::memory_order_relaxed);
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

}  // namespace secmem
