// ShardedSecureMemory: routing, batch I/O, cross-shard byte ranges,
// aggregated maintenance, and the multithreaded stress tests that the
// TSan build (scripts/sanitize.sh tsan) runs to prove the lock table
// actually covers every shared path.
#include "engine/sharded_memory.h"

#include <gtest/gtest.h>

#include <atomic>
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
  EXPECT_FALSE(memory.rotate_master_key(0xdeadbeef));
  // The region is still uniformly under the OLD master: clean shards
  // read back fine, and the tampered block is still flagged (not
  // laundered into a freshly-keyed state).
  EXPECT_EQ(memory.read_block(0).status, ReadStatus::kOk);
  EXPECT_EQ(memory.read_block(0).data, pattern(1));
  EXPECT_EQ(memory.read_block(2 * granule).status,
            ReadStatus::kIntegrityViolation);
  // The rollback succeeded, so the clean abort must NOT poison.
  EXPECT_FALSE(memory.poisoned());
  StatRegistry registry;
  memory.publish_metrics(registry);
  EXPECT_EQ(registry.counter_value("engine.rotate_rollback_failures"), 0u);
}

TEST(ShardedSecureMemory, RotateRollbackFailurePoisonsRegion) {
  // Regression: rotate_master_key collected per-shard rollback verdicts
  // into rolled_back[] and never read them — a rollback failure left the
  // region split-keyed (some shards old master, some new) while the call
  // reported a clean abort. Now the verdict is checked: the failure is
  // recorded and the region poisons, failing closed until restored.
  ShardedSecureMemory memory(region_config(256 * 1024), 4);
  const unsigned granule = memory.granule_blocks();
  EXPECT_EQ(memory.write_block(0, pattern(1)), Status::kOk);         // shard 0
  EXPECT_EQ(memory.write_block(granule, pattern(2)), Status::kOk);   // shard 1
  std::stringstream image;
  EXPECT_EQ(memory.save(image), Status::kOk);  // known-good image, taken before the damage

  // Shard 1 carries an uncorrectable fault: the forward rotation pass
  // fails there and the region must roll the other shards back...
  memory.with_shard_exclusive(1, [](SecureMemory& shard) {
    shard.untrusted().flip_ciphertext_bit(0, 1);
    shard.untrusted().flip_ciphertext_bit(0, 2);
    shard.untrusted().flip_ciphertext_bit(0, 3);
  });
  // ...and a tamper landing inside the rollback window (injected via the
  // test-only hook, which runs between the failed forward pass and the
  // rollback pass) makes shard 0 — already re-keyed forward — refuse to
  // rotate back. The region is now split-keyed.
  memory.set_rotate_rollback_fault_hook([&memory] {
    memory.with_shard_exclusive(0, [](SecureMemory& shard) {
      shard.untrusted().flip_ciphertext_bit(0, 1);
      shard.untrusted().flip_ciphertext_bit(0, 2);
      shard.untrusted().flip_ciphertext_bit(0, 3);
    });
  });
  EXPECT_FALSE(memory.rotate_master_key(0xdeadbeef));

  // The failure is on the record, not silently swallowed...
  EXPECT_TRUE(memory.poisoned());
  StatRegistry registry;
  memory.publish_metrics(registry);
  EXPECT_EQ(registry.counter_value("engine.rotate_rollback_failures"), 1u);

  // ...and the split-keyed region fails closed in every direction: every
  // entry point REPORTS kRegionPoisoned instead of throwing (the Status
  // contract — no engine path throws on poisoning).
  EXPECT_EQ(memory.read_block(0).status, ReadStatus::kRegionPoisoned);
  const std::vector<std::uint64_t> batch{0, granule};
  for (const auto& result : memory.read_blocks(batch))
    EXPECT_EQ(result.status, ReadStatus::kRegionPoisoned);
  std::vector<std::uint8_t> buffer(128);
  EXPECT_EQ(memory.read_bytes(0, buffer), Status::kRegionPoisoned);
  EXPECT_EQ(memory.write_bytes(0, buffer), Status::kRegionPoisoned);
  EXPECT_EQ(memory.write_block(0, pattern(9)), Status::kRegionPoisoned);
  EXPECT_TRUE(memory.scrub_all().region_poisoned);
  std::stringstream sink;
  EXPECT_EQ(memory.save(sink), Status::kRegionPoisoned);
  EXPECT_TRUE(sink.str().empty());  // a poisoned save writes NOTHING
  EXPECT_FALSE(memory.rotate_master_key(0xfeedface));
  EXPECT_GT(memory.stats().integrity_violations, 0u);

  // The documented exit: restoring a known-good image clears the poison
  // and the region serves again.
  ASSERT_TRUE(memory.restore(image));
  EXPECT_FALSE(memory.poisoned());
  EXPECT_EQ(memory.read_block(0).status, ReadStatus::kOk);
  EXPECT_EQ(memory.read_block(0).data, pattern(1));
  EXPECT_EQ(memory.read_block(granule).data, pattern(2));
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

  // read_bytes: 8 bytes straddling each block's start, one cold line each.
  before = shared_read_declines(memory);
  for (std::uint64_t line = 2 * kLinesPerPhase; line < 3 * kLinesPerPhase;
       ++line) {
    std::uint8_t out[8] = {};
    ASSERT_EQ(memory.read_bytes(block_of(line) * 64, out), Status::kOk);
    EXPECT_EQ(std::memcmp(out, data_of(line).data(), 8), 0) << line;
  }
  EXPECT_GT(shared_read_declines(memory), before) << "read_bytes";

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

TEST(ShardedSecureMemoryStress, ReadMostlySharedReadersStayConsistent) {
  // The seqlock gate: many readers on the shared fast path (plus the
  // optimistic cross-shard byte protocol) racing one writer. Content is
  // deterministic per block, so every read — single-block or torn-range
  // candidate — has exactly one acceptable value; TSan runs this too.
  ShardedSecureMemory memory(region_config(256 * 1024), 8);
  const std::uint64_t blocks = memory.num_blocks();
  for (std::uint64_t b = 0; b < blocks; ++b)
    EXPECT_EQ(memory.write_block(b, pattern(static_cast<std::uint8_t>(b))), Status::kOk);

  constexpr unsigned kReaders = 6;
  constexpr unsigned kRounds = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  // One writer keeps generations moving (a ~95/5 mix overall), always
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
          // Cross-shard range via the optimistic snapshot protocol; the
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
}  // namespace secmem
