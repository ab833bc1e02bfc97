// SeqLock's reader indicator: readers count into per-thread slots and
// write nothing shared, and writers drain every slot before they write.
// The suite name puts every test in the TSan preset's
// `Sharded|Concurrent` filter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace secmem {
namespace {

using namespace std::chrono_literals;

struct Guarded {
  SeqLock mu;
  std::uint64_t a SECMEM_GUARDED_BY(mu) = 0;
  std::uint64_t b SECMEM_GUARDED_BY(mu) = 0;
};

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

TEST(ConcurrentSeqLock, WriterWaitsForInFlightReader) {
  Guarded g;
  std::atomic<bool> reading{false}, writer_waiting{false}, writer_in{false};
  bool writer_entered_while_read = true;

  std::thread reader([&] {
    const SeqReadLock lock(g.mu);
    reading.store(true, std::memory_order_release);
    wait_for(writer_waiting);
    // The writer is blocked in lock() now; give it ample time to (wrongly)
    // get through before the read ends.
    std::this_thread::sleep_for(50ms);
    writer_entered_while_read = writer_in.load(std::memory_order_acquire);
    EXPECT_EQ(g.a, g.b);
  });
  wait_for(reading);
  std::thread writer([&] {
    writer_waiting.store(true, std::memory_order_release);
    const SeqWriteLock lock(g.mu);
    writer_in.store(true, std::memory_order_release);
    g.a = g.b = 1;
  });
  reader.join();
  writer.join();
  EXPECT_FALSE(writer_entered_while_read);
}

TEST(ConcurrentSeqLock, ReaderArrivingDuringWriteWaitsAndSeesIt) {
  Guarded g;
  std::atomic<bool> writing{false}, reader_arriving{false},
      write_done{false};
  std::uint64_t seen_a = 0, seen_b = 0;
  bool write_done_when_read = false;

  std::thread writer([&] {
    const SeqWriteLock lock(g.mu);
    writing.store(true, std::memory_order_release);
    wait_for(reader_arriving);
    std::this_thread::sleep_for(50ms);  // the reader is blocked meanwhile
    g.a = 7;
    g.b = 7;
    write_done.store(true, std::memory_order_release);
  });
  wait_for(writing);
  std::thread reader([&] {
    reader_arriving.store(true, std::memory_order_release);
    const SeqReadLock lock(g.mu);
    write_done_when_read = write_done.load(std::memory_order_acquire);
    seen_a = g.a;
    seen_b = g.b;
  });
  writer.join();
  reader.join();
  EXPECT_TRUE(write_done_when_read);
  EXPECT_EQ(seen_a, 7u);
  EXPECT_EQ(seen_b, 7u);
}

TEST(ConcurrentSeqLock, ReadersAndWritersExcludeAndKeepGenerationParity) {
  // Twice as many threads as reader slots, so some share a slot. Writers
  // keep a == b and check no reader is inside; readers check a == b and
  // no writer inside. (The name predates the lock's generation counter's
  // removal; what it checks now is the exclusion.)
  constexpr unsigned kThreads = 2 * kThreadSlots;
  constexpr unsigned kRounds = 400;
  Guarded g;
  std::atomic<unsigned> readers_inside{0}, writers_inside{0};
  std::atomic<unsigned> violations{0}, writes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned r = 0; r < kRounds; ++r) {
        if ((t + r) % 8 == 0) {
          const SeqWriteLock lock(g.mu);
          writers_inside.fetch_add(1);
          if (readers_inside.load() != 0 || writers_inside.load() != 1)
            violations.fetch_add(1);
          g.a = g.a + 1;
          g.b = g.a;
          writes.fetch_add(1);
          writers_inside.fetch_sub(1);
        } else {
          const SeqReadLock lock(g.mu);
          readers_inside.fetch_add(1);
          if (writers_inside.load() != 0 || g.a != g.b)
            violations.fetch_add(1);
          readers_inside.fetch_sub(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(violations.load(), 0u);
  const SeqReadLock lock(g.mu);
  EXPECT_EQ(g.a, writes.load());
}

}  // namespace
}  // namespace secmem
