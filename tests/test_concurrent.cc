// Thread-safety tests of the single-lock configuration: a one-shard
// ShardedSecureMemory, where every writer serializes on one SeqLock and
// verified reads share it.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "engine/sharded_memory.h"

namespace secmem {
namespace {

DataBlock stamp(unsigned thread, unsigned round) {
  DataBlock b{};
  b[0] = static_cast<std::uint8_t>(thread);
  b[1] = static_cast<std::uint8_t>(round);
  for (std::size_t i = 2; i < 64; ++i)
    b[i] = static_cast<std::uint8_t>(thread * 31 + round * 7 + i);
  return b;
}

TEST(ShardedOneShard, ParallelDisjointWritersRoundTrip) {
  SecureMemoryConfig config;
  config.size_bytes = 64 * 1024;
  ShardedSecureMemory memory(config, 1);

  constexpr unsigned kThreads = 8;
  constexpr unsigned kRounds = 150;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memory, &failures, t] {
      // Each thread owns blocks t, t+8, t+16, ... — plus reads others.
      for (unsigned round = 0; round < kRounds; ++round) {
        const std::uint64_t block = t + 8 * (round % 16);
        EXPECT_EQ(memory.write_block(block, stamp(t, round)), Status::kOk);
        const auto result = memory.read_block(block);
        if (result.status != ReadStatus::kOk ||
            result.data != stamp(t, round))
          ++failures;
        // Cross-read someone else's block: status must be OK (content is
        // whatever their latest round wrote).
        const auto other = memory.read_block((t + 1) % 8);
        if (other.status != ReadStatus::kOk) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = memory.stats();
  EXPECT_EQ(stats.writes, kThreads * kRounds);
  EXPECT_EQ(stats.integrity_violations, 0u);
}

TEST(ShardedOneShard, ContendedSameGroupWritesStayConsistent) {
  // All threads hammer blocks of ONE 4KB group: counter maintenance
  // (resets/re-encodes/re-encryptions) interleaves with reads.
  SecureMemoryConfig config;
  config.size_bytes = 16 * 1024;
  config.scheme = CounterSchemeKind::kSplit;  // re-encrypts every 128
  ShardedSecureMemory memory(config, 1);

  std::vector<std::thread> threads;
  std::atomic<int> bad_reads{0};
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&memory, &bad_reads, t] {
      for (unsigned round = 0; round < 200; ++round) {
        EXPECT_EQ(memory.write_block(t, stamp(t, round)), Status::kOk);
        const auto result = memory.read_block(t);
        if (result.status != ReadStatus::kOk ||
            result.data != stamp(t, round))
          ++bad_reads;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GE(memory.stats().group_reencryptions, 1u);
}

TEST(ShardedOneShard, WrapsScrubStatsAndPersistence) {
  // scrub_block / reset_stats / save / restore run through the engine's
  // own locked wrappers; callers never need with_shard_exclusive (and
  // never hold the lock across arbitrary I/O by accident).
  SecureMemoryConfig config;
  config.size_bytes = 16 * 1024;
  ShardedSecureMemory memory(config, 1);
  EXPECT_EQ(memory.write_block(2, stamp(3, 4)), Status::kOk);

  // scrub_block heals a planted single-bit fault.
  memory.with_shard_exclusive(0, [](SecureMemory& inner) {
    inner.untrusted().flip_ciphertext_bit(2, 9);
  });
  EXPECT_EQ(memory.scrub_block(2),
            SecureMemory::ScrubStatus::kRepairedData);
  EXPECT_EQ(memory.read_block(2).status, ReadStatus::kOk);

  EXPECT_GT(memory.stats().reads, 0u);
  memory.reset_stats();
  EXPECT_EQ(memory.stats().reads, 0u);

  // save / restore round-trip through the locked wrappers.
  std::stringstream image;
  EXPECT_EQ(memory.save(image), Status::kOk);
  EXPECT_EQ(memory.write_block(2, stamp(9, 9)), Status::kOk);
  ASSERT_TRUE(memory.restore(image));
  const auto result = memory.read_block(2);
  EXPECT_EQ(result.status, ReadStatus::kOk);
  EXPECT_EQ(result.data, stamp(3, 4));
}

TEST(ShardedOneShardStress, ReadMostlySharedReadersStayConsistent) {
  // The single lock's seqlock gate: readers verify in parallel
  // under the shared side while one writer cycles blocks it owns alone.
  // Fixed per-block content makes every read's one acceptable value
  // computable; the TSan preset runs this too.
  SecureMemoryConfig config;
  config.size_bytes = 64 * 1024;
  ShardedSecureMemory memory(config, 1);
  const std::uint64_t blocks = memory.num_blocks();
  const auto fixed = [](std::uint64_t block) {
    return stamp(static_cast<unsigned>(block % 199), 0);
  };
  for (std::uint64_t b = 0; b < blocks; ++b)
    EXPECT_EQ(memory.write_block(b, fixed(b)), Status::kOk);

  constexpr unsigned kReaders = 6;
  constexpr unsigned kRounds = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&memory, &fixed, blocks] {
    for (unsigned round = 0; round < kRounds / 2; ++round) {
      const std::uint64_t block = (round * 11) % blocks;
      EXPECT_EQ(memory.write_block(block, fixed(block)), Status::kOk);
    }
  });
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&memory, &fixed, &failures, blocks, t] {
      for (unsigned round = 0; round < kRounds; ++round) {
        const std::uint64_t block = (round * 7 + t * 13) % blocks;
        const auto result = memory.read_block(block);
        if (result.status != ReadStatus::kOk || result.data != fixed(block))
          ++failures;
        if (round % 16 == 0) {
          std::vector<std::uint8_t> buffer(256);
          const std::uint64_t addr =
              (round * 977 + t * 131) % (memory.size_bytes() - buffer.size());
          if (!status_ok(memory.read_bytes(addr, buffer))) ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(memory.stats().integrity_violations, 0u);
  StatRegistry registry;
  memory.publish_metrics(registry);
  EXPECT_GT(registry.counter_value("engine.shared_reads"), 0u);
}

TEST(ShardedOneShard, WithShardExclusiveExposesFullApi) {
  SecureMemoryConfig config;
  config.size_bytes = 16 * 1024;
  ShardedSecureMemory memory(config, 1);
  EXPECT_EQ(memory.write_block(3, stamp(1, 1)), Status::kOk);
  const bool tampered =
      memory.with_shard_exclusive(0, [](SecureMemory& inner) {
        inner.untrusted().flip_ciphertext_bit(3, 1);
        inner.untrusted().flip_ciphertext_bit(3, 2);
        inner.untrusted().flip_ciphertext_bit(3, 3);
        return inner.read_block(3).status ==
               ReadStatus::kIntegrityViolation;
      });
  EXPECT_TRUE(tampered);
}

}  // namespace
}  // namespace secmem
