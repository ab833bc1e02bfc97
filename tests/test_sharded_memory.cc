// ShardedSecureMemory: routing, batch I/O, cross-shard byte ranges,
// aggregated maintenance, and the multithreaded stress tests that the
// TSan build (scripts/sanitize.sh tsan) runs to prove the lock table
// actually covers every shared path.
#include "engine/sharded_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace secmem {
namespace {

DataBlock pattern(std::uint8_t seed) {
  DataBlock b{};
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(seed ^ (i * 13));
  return b;
}

SecureMemoryConfig region_config(std::uint64_t size_bytes) {
  SecureMemoryConfig config;
  config.size_bytes = size_bytes;
  return config;
}

TEST(ShardedSecureMemory, RoutingStripesWholeGroupsRoundRobin) {
  ShardedSecureMemory memory(region_config(256 * 1024), 4);
  const unsigned granule = memory.granule_blocks();
  EXPECT_EQ(granule % 64, 0u);  // never splits a 4 KB block-group
  // Every block of one granule lands on the same shard...
  for (unsigned b = 0; b < granule; ++b)
    EXPECT_EQ(memory.shard_of_block(b), memory.shard_of_block(0));
  // ...and consecutive granules round-robin across shards.
  for (unsigned g = 0; g < 8; ++g)
    EXPECT_EQ(memory.shard_of_block(g * granule), g % 4);
}

TEST(ShardedSecureMemory, MonolithicSchemeStillRoutesAt4KGranules) {
  SecureMemoryConfig config = region_config(256 * 1024);
  config.scheme = CounterSchemeKind::kMonolithic56;
  ShardedSecureMemory memory(config, 4);
  EXPECT_EQ(memory.granule_blocks() % 64, 0u);
}

TEST(ShardedSecureMemory, InvalidGeometryThrows) {
  EXPECT_THROW(ShardedSecureMemory(region_config(256 * 1024), 0),
               std::invalid_argument);
  // 5 shards cannot evenly split 64 granules of 4 KB.
  EXPECT_THROW(ShardedSecureMemory(region_config(256 * 1024), 5),
               std::invalid_argument);
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  EXPECT_THROW((void)memory.read_block(memory.num_blocks()), std::out_of_range);
  EXPECT_THROW((void)memory.write_block(memory.num_blocks(), DataBlock{}),
               std::out_of_range);
}

TEST(ShardedSecureMemory, BlockRoundTripAcrossEveryShard) {
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const unsigned granule = memory.granule_blocks();
  // One block in each of the first 16 granules: hits every shard twice.
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_EQ(memory.write_block(g * granule + 3, pattern(static_cast<std::uint8_t>(g))), Status::kOk);
  for (unsigned g = 0; g < 16; ++g) {
    const auto result = memory.read_block(g * granule + 3);
    EXPECT_EQ(result.status, ReadStatus::kOk);
    EXPECT_EQ(result.data, pattern(static_cast<std::uint8_t>(g)));
  }
  const auto stats = memory.stats();
  EXPECT_EQ(stats.writes, 16u);
  EXPECT_EQ(stats.reads, 16u);
  memory.reset_stats();
  EXPECT_EQ(memory.stats().reads, 0u);
}

TEST(ShardedSecureMemory, BatchIoMatchesSingleOpsInRequestOrder) {
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const unsigned granule = memory.granule_blocks();

  // Shard-scattered, deliberately unsorted, with a duplicate.
  std::vector<ShardedSecureMemory::BlockWrite> writes;
  std::vector<std::uint64_t> blocks;
  for (unsigned i = 0; i < 24; ++i) {
    const std::uint64_t block = ((i * 7) % 24) * granule + i;
    blocks.push_back(block);
    writes.push_back({block, pattern(static_cast<std::uint8_t>(i))});
  }
  blocks.push_back(blocks.front());  // duplicate read request
  EXPECT_EQ(memory.write_blocks(writes), Status::kOk);

  const auto results = memory.read_blocks(blocks);
  ASSERT_EQ(results.size(), blocks.size());
  for (unsigned i = 0; i < 24; ++i) {
    EXPECT_EQ(results[i].status, ReadStatus::kOk);
    EXPECT_EQ(results[i].data, pattern(static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(results.back().data, results.front().data);

  EXPECT_THROW(memory.read_blocks(std::vector<std::uint64_t>{
                   memory.num_blocks()}),
               std::out_of_range);
}

TEST(ShardedSecureMemory, ByteRangeSpanningShardsRoundTrips) {
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t granule_bytes = memory.granule_blocks() * 64ULL;
  // Start 10 bytes before a granule boundary, run two granules deep:
  // touches three shards, both edge blocks partial.
  const std::uint64_t addr = granule_bytes - 10;
  std::vector<std::uint8_t> incoming(2 * granule_bytes + 20);
  for (std::size_t i = 0; i < incoming.size(); ++i)
    incoming[i] = static_cast<std::uint8_t>(i * 31 + 5);
  ASSERT_EQ(Status::kOk, memory.write_bytes(addr, incoming));
  std::vector<std::uint8_t> readback(incoming.size());
  ASSERT_EQ(Status::kOk, memory.read_bytes(addr, readback));
  EXPECT_EQ(readback, incoming);

  std::vector<std::uint8_t> buffer(128);
  EXPECT_THROW((void)memory.read_bytes(UINT64_MAX - 63, buffer), std::out_of_range);
  EXPECT_THROW((void)memory.write_bytes(UINT64_MAX - 63, buffer), std::out_of_range);
}

TEST(ShardedSecureMemory, CrossShardWriteIsAllOrNothing) {
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const unsigned granule = memory.granule_blocks();
  const std::uint64_t tail_block = granule;  // first block of shard 1
  EXPECT_EQ(memory.write_block(0, pattern(1)), Status::kOk);
  EXPECT_EQ(memory.write_block(tail_block, pattern(2)), Status::kOk);
  // Make the tail block unreadable in its own shard.
  memory.with_shard_exclusive(1, [](SecureMemory& shard) {
    shard.untrusted().flip_ciphertext_bit(0, 1);
    shard.untrusted().flip_ciphertext_bit(0, 2);
    shard.untrusted().flip_ciphertext_bit(0, 3);
  });

  // Whole of shard 0's granule plus 2 bytes into the tampered block.
  std::vector<std::uint8_t> incoming(granule * 64ULL + 2, 0xEE);
  EXPECT_FALSE(status_ok(memory.write_bytes(0, incoming)));
  // Shard 0 was not touched.
  EXPECT_EQ(memory.read_block(0).data, pattern(1));
}

TEST(ShardedSecureMemory, ScrubAllSweepsAndHealsEveryShard) {
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  EXPECT_EQ(memory.write_block(5, pattern(9)), Status::kOk);
  // Plant a single-bit ciphertext fault in two different shards.
  memory.with_shard_exclusive(0, [](SecureMemory& shard) {
    shard.untrusted().flip_ciphertext_bit(5, 100);
  });
  memory.with_shard_exclusive(3, [](SecureMemory& shard) {
    shard.untrusted().flip_ciphertext_bit(2, 7);
  });
  const auto report = memory.scrub_all();
  EXPECT_EQ(report.scanned, memory.num_blocks());
  EXPECT_EQ(report.repaired_data, 2u);
  EXPECT_EQ(report.uncorrectable, 0u);
  // Healed in place: reads are clean again.
  EXPECT_EQ(memory.read_block(5).status, ReadStatus::kOk);
  EXPECT_EQ(memory.read_block(5).data, pattern(9));
  EXPECT_EQ(memory.scrub_all().repaired_data, 0u);
}

TEST(ShardedSecureMemory, RotateMasterKeyPreservesContents) {
  ShardedSecureMemory memory(region_config(256 * 1024), 4);
  const unsigned granule = memory.granule_blocks();
  for (unsigned g = 0; g < 8; ++g)
    EXPECT_EQ(memory.write_block(g * granule, pattern(static_cast<std::uint8_t>(g))), Status::kOk);
  ASSERT_TRUE(memory.rotate_master_key(0xfeedface));
  for (unsigned g = 0; g < 8; ++g) {
    const auto result = memory.read_block(g * granule);
    EXPECT_EQ(result.status, ReadStatus::kOk);
    EXPECT_EQ(result.data, pattern(static_cast<std::uint8_t>(g)));
  }
}

TEST(ShardedSecureMemory, RotateMasterKeyIsAllOrNothingAcrossShards) {
  ShardedSecureMemory memory(region_config(256 * 1024), 4);
  const unsigned granule = memory.granule_blocks();
  EXPECT_EQ(memory.write_block(0, pattern(1)), Status::kOk);               // shard 0
  EXPECT_EQ(memory.write_block(2 * granule, pattern(2)), Status::kOk);     // shard 2
  // Shard 2 has an uncorrectable fault: its rotation must refuse.
  memory.with_shard_exclusive(2, [](SecureMemory& shard) {
    shard.untrusted().flip_ciphertext_bit(0, 1);
    shard.untrusted().flip_ciphertext_bit(0, 2);
    shard.untrusted().flip_ciphertext_bit(0, 3);
  });
  std::stringstream before;  // also aligns every shard's delta chain
  ASSERT_EQ(memory.save(before), Status::kOk);
  EXPECT_FALSE(memory.rotate_master_key(0xdeadbeef));
  // The region is still uniformly under the OLD master: clean shards
  // read back fine, and the tampered block is still flagged (not
  // laundered into a freshly-keyed state).
  EXPECT_EQ(memory.read_block(0).status, ReadStatus::kOk);
  EXPECT_EQ(memory.read_block(0).data, pattern(1));
  EXPECT_EQ(memory.read_block(2 * granule).status,
            ReadStatus::kIntegrityViolation);
  // No shard was re-encrypted, not even transiently: every delta chain
  // still stands, so the next save_delta ships no full fallback, and a
  // full image is byte-for-byte the one taken before the call.
  std::stringstream delta;
  ASSERT_EQ(memory.save_delta(delta), Status::kOk);
  StatRegistry registry;
  memory.publish_metrics(registry);
  EXPECT_EQ(registry.counter_value("engine.snapshot.delta.save_fallbacks"),
            0u);
  std::stringstream after;
  ASSERT_EQ(memory.save(after), Status::kOk);
  EXPECT_EQ(after.str(), before.str());
}

TEST(ShardedSecureMemory, SaveRestoreRoundTripsAllShards) {
  ShardedSecureMemory memory(region_config(256 * 1024), 4);
  const unsigned granule = memory.granule_blocks();
  for (unsigned g = 0; g < 6; ++g)
    EXPECT_EQ(memory.write_block(g * granule + g,
                                 pattern(static_cast<std::uint8_t>(0x40 + g))),
              Status::kOk);
  std::stringstream image;
  EXPECT_EQ(memory.save(image), Status::kOk);
  for (unsigned g = 0; g < 6; ++g)
    EXPECT_EQ(memory.write_block(g * granule + g, pattern(0x77)), Status::kOk);
  ASSERT_TRUE(memory.restore(image));
  for (unsigned g = 0; g < 6; ++g) {
    const auto result = memory.read_block(g * granule + g);
    EXPECT_EQ(result.status, ReadStatus::kOk);
    EXPECT_EQ(result.data, pattern(static_cast<std::uint8_t>(0x40 + g)));
  }
  std::stringstream garbage("not an image");
  EXPECT_FALSE(memory.restore(garbage));
}

TEST(ShardedSecureMemory, RestoreFailureLeavesEveryShardIntact) {
  // Regression: restore() used to commit shard by shard as it streamed
  // the container, so a truncated or tampered image left a mix of
  // restored and wiped shards behind a false return. Staging makes a
  // false return mean "the region is EXACTLY as it was".
  ShardedSecureMemory memory(region_config(256 * 1024), 4);
  const unsigned granule = memory.granule_blocks();
  for (unsigned g = 0; g < 8; ++g)
    EXPECT_EQ(memory.write_block(g * granule, pattern(static_cast<std::uint8_t>(g))), Status::kOk);
  std::stringstream image;
  EXPECT_EQ(memory.save(image), Status::kOk);
  const std::string full = image.str();

  // The region moves on; these contents must survive every failed
  // restore below, bit for bit.
  for (unsigned g = 0; g < 8; ++g)
    EXPECT_EQ(memory.write_block(g * granule,
                                 pattern(static_cast<std::uint8_t>(0xA0 + g))),
              Status::kOk);
  const auto expect_untouched = [&] {
    for (unsigned g = 0; g < 8; ++g) {
      const auto result = memory.read_block(g * granule);
      EXPECT_EQ(result.status, ReadStatus::kOk);
      EXPECT_EQ(result.data, pattern(static_cast<std::uint8_t>(0xA0 + g)));
    }
  };

  // Truncated image: the first shards stage fine, then a later shard's
  // image runs out mid-read. Nothing may commit.
  std::stringstream truncated(full.substr(0, full.size() - full.size() / 4));
  EXPECT_FALSE(memory.restore(truncated));
  expect_untouched();

  // Tampered image: flip a bit in the LAST shard's sealed-root snapshot
  // (the container's final bytes), so shards 0..2 stage successfully and
  // shard 3 is rejected by the offline-tamper check. Still nothing
  // commits.
  std::string tampered = full;
  tampered[tampered.size() - 10] ^= 0x01;
  std::stringstream bad(tampered);
  EXPECT_FALSE(memory.restore(bad));
  expect_untouched();

  // And the untampered image still restores in full afterwards.
  std::stringstream good(full);
  ASSERT_TRUE(memory.restore(good));
  for (unsigned g = 0; g < 8; ++g)
    EXPECT_EQ(memory.read_block(g * granule).data,
              pattern(static_cast<std::uint8_t>(g)));
}

std::uint64_t shared_read_declines(const SecureMemoryLike& memory) {
  StatRegistry registry;
  memory.publish_metrics(registry);
  return registry.counter_value("engine.shared_read_declines");
}

/// Drive cold counter lines through every verified-read surface of a
/// seqlock engine. A cold line's shared read declines every eighth time
/// (the promotion pulse); the declined read must fall back to the
/// exclusive path with the same result — the right plaintext on a clean
/// line, kCounterTampered on a tampered one. `flip_counter` tampers the
/// counter line that holds global block `block`.
template <typename FlipCounter>
void expect_declines_fall_back(SecureMemoryLike& memory,
                               FlipCounter flip_counter) {
  // One block per 64-block group = one block per counter line; every
  // line is cold because the region was just restored.
  constexpr std::uint64_t kGroup = 64;
  constexpr std::uint64_t kLinesPerPhase = 128;
  const auto block_of = [](std::uint64_t line) { return line * kGroup + 5; };
  const auto data_of = [](std::uint64_t line) {
    return pattern(static_cast<std::uint8_t>(line));
  };
  ASSERT_GE(memory.num_blocks(), 4 * kLinesPerPhase * kGroup);

  // read_block.
  std::uint64_t before = shared_read_declines(memory);
  for (std::uint64_t line = 0; line < kLinesPerPhase; ++line) {
    const auto r = memory.read_block(block_of(line));
    ASSERT_EQ(r.status, ReadStatus::kOk) << line;
    EXPECT_EQ(r.data, data_of(line)) << line;
  }
  EXPECT_GT(shared_read_declines(memory), before) << "read_block";

  // read_blocks.
  before = shared_read_declines(memory);
  std::vector<std::uint64_t> batch;
  for (std::uint64_t line = kLinesPerPhase; line < 2 * kLinesPerPhase; ++line)
    batch.push_back(block_of(line));
  const auto results = memory.read_blocks(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(results[i].status, ReadStatus::kOk) << i;
    EXPECT_EQ(results[i].data, data_of(kLinesPerPhase + i)) << i;
  }
  EXPECT_GT(shared_read_declines(memory), before) << "read_blocks";

  // read_bytes: 8 bytes at each block's start, one cold line each. Byte
  // reads take the exclusive path, so they never decline; the plaintext
  // must still match.
  for (std::uint64_t line = 2 * kLinesPerPhase; line < 3 * kLinesPerPhase;
       ++line) {
    std::uint8_t out[8] = {};
    ASSERT_EQ(memory.read_bytes(block_of(line) * 64, out), Status::kOk);
    EXPECT_EQ(std::memcmp(out, data_of(line).data(), 8), 0) << line;
  }

  // Tampered cold lines: declined or not, the verdict is the tamper.
  for (std::uint64_t line = 3 * kLinesPerPhase; line < 4 * kLinesPerPhase;
       ++line)
    flip_counter(block_of(line));
  before = shared_read_declines(memory);
  for (std::uint64_t line = 3 * kLinesPerPhase; line < 4 * kLinesPerPhase;
       ++line)
    EXPECT_EQ(memory.read_block(block_of(line)).status,
              ReadStatus::kCounterTampered)
        << line;
  EXPECT_GT(shared_read_declines(memory), before) << "tampered";
}

/// One distinct block per counter line written to `donor`, saved, and
/// restored into `memory` so every line starts cold in the verified
/// frontier.
void restore_cold(SecureMemoryLike& donor, SecureMemoryLike& memory) {
  for (std::uint64_t line = 0; line * 64 < donor.num_blocks(); ++line)
    ASSERT_EQ(donor.write_block(line * 64 + 5,
                                pattern(static_cast<std::uint8_t>(line))),
              Status::kOk);
  std::stringstream image;
  ASSERT_EQ(donor.save(image), Status::kOk);
  ASSERT_TRUE(memory.restore(image));
}

TEST(ShardedSecureMemory, DeclinedSharedReadsFallBackExclusively) {
  ShardedSecureMemory donor(region_config(4 * 1024 * 1024), 4);
  ShardedSecureMemory memory(region_config(4 * 1024 * 1024), 4);
  restore_cold(donor, memory);
  const std::uint64_t granule = memory.granule_blocks();
  expect_declines_fall_back(memory, [&](std::uint64_t block) {
    // Global granule g lives in shard g % 4 as that shard's local
    // granule g / 4 — one counter line per granule.
    const std::uint64_t g = block / granule;
    memory.with_shard_exclusive(
        static_cast<unsigned>(g % memory.num_shards()),
        [&](SecureMemory& shard) {
          const std::uint64_t local = (g / memory.num_shards()) * granule;
          shard.untrusted().flip_counter_bit(
              shard.counters().storage_line_of(local), 3);
        });
  });
}

TEST(ShardedOneShard, DeclinedSharedReadsFallBackExclusively) {
  // One shard: local and global block numbers coincide.
  ShardedSecureMemory donor(region_config(4 * 1024 * 1024), 1);
  ShardedSecureMemory memory(region_config(4 * 1024 * 1024), 1);
  restore_cold(donor, memory);
  expect_declines_fall_back(memory, [&](std::uint64_t block) {
    memory.with_shard_exclusive(0, [&](SecureMemory& m) {
      m.untrusted().flip_counter_bit(m.counters().storage_line_of(block), 3);
    });
  });
}

// ----------------------------------------------------------- stress
// The TSan gate: concurrent readers and writers scattered across shard
// boundaries while scrub_all sweeps shard-parallel and batches fly.

TEST(ShardedSecureMemoryStress, ReadersWritersAndScrubAcrossShards) {
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t blocks = memory.num_blocks();
  constexpr unsigned kWriters = 4;
  constexpr unsigned kReaders = 3;
  constexpr unsigned kRounds = 150;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&memory, &failures, blocks, t] {
      Xoshiro256 rng(1000 + t);
      for (unsigned round = 0; round < kRounds; ++round) {
        // Each writer owns a block-index residue class so read-back
        // content checks never race another writer.
        const std::uint64_t block =
            (rng.next_below(blocks / kWriters) * kWriters + t) % blocks;
        const auto stamp = pattern(static_cast<std::uint8_t>(t * 16 + 1));
        EXPECT_EQ(memory.write_block(block, stamp), Status::kOk);
        const auto result = memory.read_block(block);
        if (result.status != ReadStatus::kOk || result.data != stamp)
          ++failures;
      }
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&memory, &failures, blocks, t] {
      Xoshiro256 rng(2000 + t);
      for (unsigned round = 0; round < kRounds; ++round) {
        if (round % 3 == 0) {
          // Batch read scattered over all shards.
          std::vector<std::uint64_t> batch;
          for (unsigned i = 0; i < 16; ++i)
            batch.push_back(rng.next_below(blocks));
          for (const auto& result : memory.read_blocks(batch))
            if (result.status != ReadStatus::kOk) ++failures;
        } else {
          // Cross-shard byte-range read.
          std::vector<std::uint8_t> buffer(512);
          const std::uint64_t addr =
              rng.next_below(memory.size_bytes() - buffer.size());
          if (!status_ok(memory.read_bytes(addr, buffer))) ++failures;
        }
      }
    });
  }
  threads.emplace_back([&memory, &failures] {
    for (unsigned sweep = 0; sweep < 3; ++sweep) {
      const auto report = memory.scrub_all();
      if (report.uncorrectable != 0 || report.counter_tampered != 0)
        ++failures;
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(memory.stats().integrity_violations, 0u);
}

TEST(ShardedSecureMemoryStress, ConcurrentBatchesAndCrossShardWrites) {
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t granule_bytes = memory.granule_blocks() * 64ULL;
  constexpr unsigned kThreads = 4;
  constexpr unsigned kRounds = 60;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memory, &failures, granule_bytes, t] {
      Xoshiro256 rng(3000 + t);
      // Each thread owns one byte lane: a disjoint 256-byte window that
      // straddles a shard boundary (unique per thread).
      const std::uint64_t addr = (2 * t + 1) * granule_bytes - 128;
      for (unsigned round = 0; round < kRounds; ++round) {
        std::vector<std::uint8_t> lane(
            256, static_cast<std::uint8_t>(t * 50 + round));
        if (!status_ok(memory.write_bytes(addr, lane))) ++failures;
        std::vector<std::uint8_t> readback(lane.size());
        if (!status_ok(memory.read_bytes(addr, readback)) || readback != lane)
          ++failures;

        // Plus a shard-scattered block batch in the upper half of the
        // region — disjoint from every thread's byte lane (all of which
        // sit in the lower half), so lane read-backs stay deterministic.
        const std::uint64_t half = memory.num_blocks() / 2;
        std::vector<ShardedSecureMemory::BlockWrite> writes;
        for (unsigned i = 0; i < 8; ++i) {
          const std::uint64_t block = half + rng.next_below(half);
          writes.push_back(
              {block, pattern(static_cast<std::uint8_t>(round + i))});
        }
        EXPECT_EQ(memory.write_blocks(writes), Status::kOk);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(memory.stats().integrity_violations, 0u);
}

TEST(ShardedSecureMemoryStress, CrossShardByteReadsNeverSeeTornWrites) {
  // Writers fill one 128-byte range that straddles the boundary between
  // shards 1 and 0 with a single byte value that changes per write;
  // readers read the same range and must see one write whole. The range
  // runs against table order (its first block is in shard 1), so a
  // writer that holds shard 0 and waits for shard 1 is common: a read
  // that let go of shard 1 before taking shard 0 would then return the
  // old first block and the new second one. Writers run until every
  // reader is done, so each read overlaps writes.
  ShardedSecureMemory memory(region_config(256 * 1024), 2);
  const std::uint64_t addr = 2 * memory.granule_blocks() * 64ULL - 64;
  ASSERT_EQ(memory.shard_of_block(addr / 64), 1u);
  ASSERT_EQ(memory.shard_of_block(addr / 64 + 1), 0u);
  constexpr unsigned kWriters = 2;
  constexpr unsigned kReaders = 2;
  constexpr unsigned kReads = 5000;
  std::atomic<unsigned> readers_left{kReaders};
  std::atomic<int> failures{0};
  std::atomic<int> torn{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      std::array<std::uint8_t, 128> range{};
      for (unsigned round = 0; readers_left.load() != 0; ++round) {
        range.fill(static_cast<std::uint8_t>(2 * round + t));
        if (memory.write_bytes(addr, range) != Status::kOk) ++failures;
      }
    });
  }
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      std::array<std::uint8_t, 128> range{};
      for (unsigned read = 0; read < kReads; ++read) {
        if (memory.read_bytes(addr, range) != Status::kOk) ++failures;
        if (std::count(range.begin(), range.end(), range[0]) !=
            static_cast<std::ptrdiff_t>(range.size()))
          ++torn;
      }
      readers_left.fetch_sub(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(memory.stats().integrity_violations, 0u);
}

TEST(ShardedSecureMemoryStress, ReadMostlySharedReadersStayConsistent) {
  // The seqlock gate: many readers on the shared fast path (plus
  // cross-shard byte reads under the ordered exclusive lock set) racing
  // one writer. Content is deterministic per block, so every read —
  // single-block or torn-range candidate — has exactly one acceptable
  // value; TSan runs this too.
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t blocks = memory.num_blocks();
  for (std::uint64_t b = 0; b < blocks; ++b)
    EXPECT_EQ(memory.write_block(b, pattern(static_cast<std::uint8_t>(b))), Status::kOk);

  constexpr unsigned kReaders = 6;
  constexpr unsigned kRounds = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  // One writer keeps the writer side busy (a ~95/5 mix overall), always
  // re-writing the block's fixed pattern so readers stay checkable.
  threads.emplace_back([&memory, blocks] {
    Xoshiro256 rng(7);
    for (unsigned round = 0; round < kRounds / 2; ++round) {
      const std::uint64_t block = rng.next_below(blocks);
      EXPECT_EQ(memory.write_block(block, pattern(static_cast<std::uint8_t>(block))), Status::kOk);
    }
  });
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&memory, &failures, blocks, t] {
      Xoshiro256 rng(4000 + t);
      for (unsigned round = 0; round < kRounds; ++round) {
        const std::uint64_t block = rng.next_below(blocks);
        const auto result = memory.read_block(block);
        if (result.status != ReadStatus::kOk ||
            result.data != pattern(static_cast<std::uint8_t>(block)))
          ++failures;
        if (round % 16 == 0) {
          // Cross-shard range under every involved shard's lock; the
          // expected bytes are computable because content is fixed.
          std::vector<std::uint8_t> buffer(256);
          const std::uint64_t addr =
              rng.next_below(memory.size_bytes() - buffer.size());
          if (!status_ok(memory.read_bytes(addr, buffer))) {
            ++failures;
          } else {
            for (std::size_t i = 0; i < buffer.size(); ++i) {
              const std::uint64_t byte_block = (addr + i) / 64;
              const std::size_t off = (addr + i) % 64;
              const auto expected = static_cast<std::uint8_t>(
                  static_cast<std::uint8_t>(byte_block) ^ (off * 13));
              if (buffer[i] != expected) ++failures;
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(memory.stats().integrity_violations, 0u);
  StatRegistry registry;
  memory.publish_metrics(registry);
  EXPECT_GT(registry.counter_value("engine.shared_reads"), 0u);
}

}  // namespace
// ------------------------------------------------------ exact counts
// A shard's exclusive-path increments are single-writer stores (no lock
// prefix; common/metrics.h); only the shard's SeqWriteLock keeps them
// from racing the shared path's atomic increments into the same cell.
// These run every path at once under contention and demand the books
// balance to the op: a single-writer increment reachable from a shared
// or unlocked path loses counts here.

unsigned count_clients() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

TEST(ShardedSecureMemoryStress, ConcurrentSingleWriterCountsAreExact) {
  // 8 shards of 512 KiB. Half the ops hit blocks 0..127 (shards 0 and 1),
  // so clients meet on the same shard; the other half roam the region.
  // A 2 KB frontier per shard holds 32 of each shard's 128 counter lines,
  // so roaming probes miss and the promotion pulse declines reads to the
  // exclusive path.
  SecureMemoryConfig config = region_config(4 * 1024 * 1024);
  config.tree_cache_kb = 2;
  ShardedSecureMemory memory(config, 8);
  const std::uint64_t blocks = memory.num_blocks();
  memory.reset_stats();
  const unsigned clients = count_clients();
  constexpr unsigned kOps = 4000;
  std::atomic<std::uint64_t> reads{0}, writes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(9000 + t);
      std::uint64_t my_reads = 0, my_writes = 0;
      for (unsigned op = 0; op < kOps; ++op) {
        const std::uint64_t block = rng.next_below(2) == 0
                                        ? rng.next_below(128)
                                        : rng.next_below(blocks);
        if (rng.next_below(10) < 3) {
          if (memory.write_block(block, pattern(static_cast<std::uint8_t>(
                                            op))) != Status::kOk)
            ++failures;
          ++my_writes;
        } else {
          if (memory.read_block(block).status != ReadStatus::kOk) ++failures;
          ++my_reads;
        }
      }
      reads += my_reads;
      writes += my_writes;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const EngineStats stats = memory.stats();
  StatRegistry registry;
  memory.publish_metrics(registry);
  const std::uint64_t shared = registry.counter_value("engine.shared_reads");
  const std::uint64_t declines =
      registry.counter_value("engine.shared_read_declines");
  const std::uint64_t probe_hits =
      registry.counter_value("engine.tree_cache.probe_hits");
  const std::uint64_t probe_misses =
      registry.counter_value("engine.tree_cache.probe_misses");
  // Every read is served shared or declined to the exclusive path, and
  // probes once on the way; every write and every declined read updates
  // or verifies through the tree cache exactly once.
  EXPECT_EQ(stats.reads, reads.load());
  EXPECT_EQ(stats.writes, writes.load());
  EXPECT_EQ(shared + declines, reads.load());
  EXPECT_EQ(probe_hits + probe_misses, reads.load());
  EXPECT_EQ(stats.tree_cache_hits + stats.tree_cache_misses,
            writes.load() + declines);
  // Each path actually ran.
  EXPECT_GT(declines, 0u);
  EXPECT_GT(shared, 0u);
  EXPECT_GT(probe_hits, 0u);
  EXPECT_GT(stats.tree_cache_hits, 0u);
}

TEST(ShardedSecureMemoryStress, ConcurrentByteReadAccountingIsExact) {
  // Cross-shard byte reads count one exclusive verified read per block
  // into each shard's cell, racing deep scrubs (an exclusive verified
  // read each) and writes that count into the same cells under the
  // shard's write lock. Every op lands on
  // shards 0 and 1; each read_bytes covers the last block of shard 0's
  // first granule and the first of shard 1's, so it must add exactly two
  // reads.
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t granule = memory.granule_blocks();
  memory.reset_stats();
  const unsigned clients = count_clients();
  constexpr unsigned kOps = 4000;
  std::atomic<std::uint64_t> reads{0}, byte_reads{0}, writes{0}, scrubs{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(9100 + t);
      std::uint64_t my_reads = 0, my_byte_reads = 0, my_writes = 0,
                    my_scrubs = 0;
      std::array<std::uint8_t, 64> buffer{};
      for (unsigned op = 0; op < kOps; ++op) {
        const std::uint64_t kind = rng.next_below(10);
        const std::uint64_t block = rng.next_below(2 * granule);
        if (kind < 5) {
          if (!status_ok(memory.read_bytes(granule * kBlockBytes - 32,
                                           buffer)))
            ++failures;
          ++my_byte_reads;
          my_reads += 2;
        } else if (kind < 8) {
          if (memory.scrub_block(block, /*deep=*/true) !=
              ScrubStatus::kClean)
            ++failures;
          ++my_scrubs;
          ++my_reads;
        } else {
          if (memory.write_block(block, pattern(static_cast<std::uint8_t>(
                                            op))) != Status::kOk)
            ++failures;
          ++my_writes;
        }
      }
      reads += my_reads;
      byte_reads += my_byte_reads;
      writes += my_writes;
      scrubs += my_scrubs;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const EngineStats stats = memory.stats();
  StatRegistry registry;
  memory.publish_metrics(registry);
  EXPECT_EQ(stats.reads, reads.load());
  EXPECT_EQ(stats.writes, writes.load());
  EXPECT_EQ(registry.counter_value("engine.byte_reads"), byte_reads.load());
  EXPECT_EQ(registry.counter_value("engine.scrubbed_blocks"), scrubs.load());
}

TEST(ShardedSecureMemoryStress, LiveTraceAttachDetachDuringByteOps) {
  // attach_trace publishes the ring through atomic pointers, so it may
  // run while cross-shard byte operations are in flight: their
  // region-level events load the region's ring pointer, which
  // attach_trace stores under no lock. The ring outlives every use.
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t granule = memory.granule_blocks();
  TraceRing ring(128);
  const unsigned clients = count_clients();
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(9300 + t);
      // Each client straddles its own pair of adjacent shards.
      const std::uint64_t edge = (t + 1) * granule * kBlockBytes;
      std::array<std::uint8_t, 64> buffer{};
      for (unsigned op = 0; op < 300 || !stop.load(); ++op) {
        if (rng.chance(0.5)) {
          if (!status_ok(memory.read_bytes(edge - 32, buffer))) ++failures;
        } else {
          buffer.fill(static_cast<std::uint8_t>(op));
          if (memory.write_bytes(edge - 32, buffer) != Status::kOk)
            ++failures;
        }
      }
    });
  }
  for (int round = 0; round < 400; ++round) {
    memory.attach_trace(&ring);
    std::this_thread::yield();
    memory.attach_trace(nullptr);
  }
  stop = true;
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Attached once more, the ring records the next byte operation.
  memory.attach_trace(&ring);
  const std::uint64_t before = ring.recorded();
  std::array<std::uint8_t, 64> buffer{};
  EXPECT_TRUE(status_ok(memory.read_bytes(granule * kBlockBytes - 32, buffer)));
  EXPECT_GT(ring.recorded(), before);
  memory.attach_trace(nullptr);
}

TEST(ShardedSecureMemoryStress, ContendedShardPoolNeverDeadlocks) {
  // Every fan-out operation at once on one 8-shard engine: scrub_all,
  // rotate_master_key, full restore and delta replication each want the
  // shard pool, and the restores fan out while holding every shard lock
  // that a scrub job may be waiting for. A caller that finds the pool
  // busy sweeps on its own thread, so all of them finish; no content
  // ever changes, so every verified read returns what was written.
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t blocks = memory.num_blocks();
  for (std::uint64_t b = 0; b < blocks; ++b)
    ASSERT_EQ(memory.write_block(b, pattern(static_cast<std::uint8_t>(b))),
              Status::kOk);
  const std::uint64_t first_master = 0x5eed;
  ASSERT_TRUE(memory.rotate_master_key(first_master));
  std::stringstream image;
  ASSERT_EQ(memory.save(image), Status::kOk);
  const std::string full = image.str();

  constexpr unsigned kRounds = 30;
  std::atomic<int> failures{0};
  std::atomic<unsigned> finished{0};
  // One thread per job below, in a fixed array: growing a vector from
  // empty inside `job` trips a GCC 12 -Warray-bounds false positive in
  // Release builds.
  std::array<std::thread, 5> threads;
  std::size_t started = 0;
  const auto job = [&threads, &started, &finished](auto body) {
    threads.at(started++) = std::thread([body, &finished] {
      body();
      finished.fetch_add(1);
    });
  };
  job([&memory, &failures] {
    for (unsigned r = 0; r < kRounds; ++r) {
      const auto report = memory.scrub_all();
      if (report.uncorrectable != 0 || report.counter_tampered != 0)
        ++failures;
    }
  });
  job([&memory, &failures] {
    // Alternate between two masters so the full image (sealed under the
    // first) applies about half the time.
    for (unsigned r = 0; r < kRounds; ++r) {
      if (!memory.rotate_master_key(r % 2 == 0 ? 0xfeed : first_master))
        ++failures;
    }
  });
  job([&memory, &full] {
    for (unsigned r = 0; r < kRounds; ++r) {
      std::istringstream in(full);
      (void)memory.restore(in);  // rejected while the other master rules
    }
  });
  job([&memory, &failures] {
    for (unsigned r = 0; r < kRounds; ++r) {
      std::stringstream delta;
      if (memory.save_delta(delta) != Status::kOk) ++failures;
      // Applies unless a rotation or restore moved the chain between the
      // two calls; either way the region keeps its contents.
      (void)memory.restore_delta(delta);
    }
  });
  job([&memory, &failures, blocks] {
    Xoshiro256 rng(77);
    for (unsigned r = 0; r < 40 * kRounds; ++r) {
      const std::uint64_t b = rng.next_below(blocks);
      const auto result = memory.read_block(b);
      if (result.status != ReadStatus::kOk ||
          result.data != pattern(static_cast<std::uint8_t>(b)))
        ++failures;
    }
  });

  // A deadlock would hang join(); fail loudly instead.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  while (finished.load() < threads.size()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "contended shard pool deadlocked\n");
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(memory.stats().integrity_violations, 0u);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const auto result = memory.read_block(b);
    ASSERT_EQ(result.status, ReadStatus::kOk) << "block " << b;
    ASSERT_EQ(result.data, pattern(static_cast<std::uint8_t>(b)));
  }
}

}  // namespace secmem
