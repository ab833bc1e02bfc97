// ShardPool: every task runs exactly once, results and exceptions reach
// the caller, and a caller that finds the pool busy runs its whole job
// on its own thread instead of waiting. The suite name carries "Sharded"
// so the TSan preset runs it with the other concurrency suites.
#include "engine/shard_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace secmem {
namespace {

TEST(ShardedPool, RunsEveryTaskExactlyOnce) {
  ShardPool pool(3);
  for (unsigned n : {0u, 1u, 2u, 8u, 64u}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<int> hits(n, 0);  // plain ints: run() publishes them
      pool.run(n, [&hits](unsigned i) { ++hits[i]; });
      for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "n " << n << " task " << i;
    }
  }
}

TEST(ShardedPool, NoWorkersRunsOnTheCaller) {
  ShardPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(5);
  pool.run(5, [&ran](unsigned i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran) EXPECT_EQ(id, caller);
}

TEST(ShardedPool, BusyPoolRunsTheSecondJobOnItsCaller) {
  // Job A parks one task until job B has finished. Were B to wait for
  // the pool, this would never return.
  ShardPool pool(2);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_done{false};
  std::vector<int> a_hits(4, 0);
  std::thread a([&] {
    pool.run(4, [&](unsigned i) {
      if (i == 0) {
        a_started.store(true);
        while (!b_done.load()) std::this_thread::yield();
      }
      ++a_hits[i];
    });
  });
  while (!a_started.load()) std::this_thread::yield();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(3);
  pool.run(3, [&ran](unsigned i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran) EXPECT_EQ(id, caller);
  b_done.store(true);
  a.join();
  for (const int h : a_hits) EXPECT_EQ(h, 1);
}

TEST(ShardedPool, TaskExceptionReachesTheCallerAfterTheJob) {
  ShardPool pool(3);
  for (unsigned thrower : {0u, 5u}) {
    std::vector<int> hits(8, 0);
    EXPECT_THROW(pool.run(8,
                          [&hits, thrower](unsigned i) {
                            ++hits[i];
                            if (i == thrower) throw std::runtime_error("task");
                          }),
                 std::runtime_error);
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
  // The pool is free again and takes the next job.
  std::vector<int> hits(8, 0);
  pool.run(8, [&hits](unsigned i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ShardedPool, ConcurrentCallersEachFinishTheirJobs) {
  ShardPool pool(ShardPool::helpers_for(8));
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &failures] {
      for (int round = 0; round < 200; ++round) {
        std::vector<int> hits(8, 0);
        pool.run(8, [&hits](unsigned i) { ++hits[i]; });
        for (const int h : hits) failures += h != 1;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace secmem
