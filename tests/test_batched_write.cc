// Differential and stress coverage of the batched group write path:
// overflow re-encryption routed through crypt_batch / compute_batch /
// pack_lane_batch must be OBSERVABLY IDENTICAL to the paper's per-block
// datapath — same save images bit for bit, same readback — and safe under
// concurrent overflow storms.
//
// The per-block side is ReferenceMemory (tests/reference_memory.h): a
// straight-line model with its own key derivation, eager tree, and
// per-element image I/O, so each test drives the production engine and
// a model that shares none of its batching.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"
#include "reference_memory.h"

namespace secmem {
namespace {

DataBlock pattern(std::uint64_t seed) {
  DataBlock b;
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(seed * 131 + i * 7 + 1);
  return b;
}

std::string image_of(SecureMemory& engine) {
  std::ostringstream out;
  EXPECT_EQ(engine.save(out), Status::kOk);
  return out.str();
}

std::string image_of(const ReferenceMemory& reference) {
  std::ostringstream out;
  reference.save(out);
  return out.str();
}

/// FNV-1a over an image: a stable fingerprint to pin whole images with.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(BatchedWritePath, SaveImagesBitIdenticalUnderOverflowFuzz) {
  // Same operation stream through the engine and the reference; hot
  // rewrites push delta counters past kDeltaMax every round, so the
  // stream is re-encryption heavy. After every round the two save images
  // must match bit for bit — ciphertext, lanes, counter lines, tree,
  // everything the image seals.
  SecureMemoryConfig config;
  config.size_bytes = 256 * 1024;
  SecureMemory engine(config);
  ReferenceMemory reference(config);

  Xoshiro256 rng(0xba7c4);
  std::string image;
  for (int round = 0; round < 6; ++round) {
    // A hot block rewritten past the delta budget forces group
    // re-encryption; neighbors give the group non-trivial content.
    const std::uint64_t hot = rng.next_below(engine.num_blocks());
    for (int i = 0; i < 40; ++i) {
      const DataBlock fill = pattern(rng.next());
      const std::uint64_t near =
          ((hot & ~63ULL) + rng.next_below(64)) % engine.num_blocks();
      ASSERT_EQ(engine.write_block(near, fill), Status::kOk);
      reference.write_block(near, fill);
    }
    for (int i = 0; i < 140; ++i) {
      const DataBlock fill = pattern(rng.next());
      ASSERT_EQ(engine.write_block(hot, fill), Status::kOk);
      reference.write_block(hot, fill);
    }
    image = image_of(engine);
    ASSERT_EQ(image, image_of(reference)) << "round " << round;
  }
  // The differential only means something if the batched path actually
  // ran: both sides must have re-encrypted, with identical counts.
  EXPECT_GT(engine.stats().group_reencryptions, 0u);
  EXPECT_EQ(engine.stats().group_reencryptions,
            reference.group_reencryptions());
  // The final image, pinned: size and fingerprint were taken from the
  // engine before its scalar re-encryption and snapshot twins were
  // deleted, so the batched path still emits exactly what they did.
  EXPECT_EQ(image.size(), 299560u);
  EXPECT_EQ(fnv1a(image), 0x1d697529288f7526ULL);
}

TEST(BatchedWritePath, WriteBlocksBatchMatchesScalarImages) {
  // The span-batch entry point buffers stores, flushes before each group
  // drain, and coalesces line syncs; drive it with group-overlapping
  // batches and compare against per-write reference semantics.
  SecureMemoryConfig config;
  config.size_bytes = 128 * 1024;
  SecureMemory engine(config);
  ReferenceMemory reference(config);

  Xoshiro256 rng(0x5eed);
  std::vector<BlockWrite> writes;
  for (int round = 0; round < 6; ++round) {
    writes.clear();
    // Four rounds of heavy repeats inside one random group, then two
    // rounds on two blocks of group 0 — enough rewrites to overflow its
    // deltas inside a batch, so the drain runs between buffered stores.
    const bool overflow_round = round >= 4;
    const std::uint64_t base =
        overflow_round ? 0 : rng.next_below(engine.num_blocks()) & ~63ULL;
    for (int i = 0; i < 200; ++i)
      writes.push_back({base + rng.next_below(overflow_round ? 2 : 8),
                        pattern(rng.next())});
    ASSERT_EQ(engine.write_blocks(writes), Status::kOk);
    for (const BlockWrite& w : writes) reference.write_block(w.block, w.data);
  }

  EXPECT_EQ(image_of(engine), image_of(reference));
  EXPECT_GT(engine.stats().group_reencryptions, 0u);
  EXPECT_EQ(engine.stats().group_reencryptions,
            reference.group_reencryptions());
}

TEST(BatchedWritePath, ReadbackUnaffectedByDrainShape) {
  // Last-writer-wins readback through the engine and the reference after
  // a re-encryption storm: the drain shape must never change WHAT is
  // stored.
  SecureMemoryConfig config;
  config.size_bytes = 64 * 1024;
  SecureMemory engine(config);
  ReferenceMemory reference(config);

  std::vector<DataBlock> truth(engine.num_blocks());
  Xoshiro256 rng(0xfeed);
  for (int i = 0; i < 3000; ++i) {
    // Half the writes hammer four blocks of group 0, so their deltas
    // overflow over and over while the rest of the group lags.
    const std::uint64_t block = i % 2 == 0
                                    ? rng.next_below(4)
                                    : rng.next_below(engine.num_blocks() / 4);
    const DataBlock fill = pattern(rng.next());
    truth[block] = fill;
    ASSERT_EQ(engine.write_block(block, fill), Status::kOk);
    reference.write_block(block, fill);
  }
  EXPECT_GT(reference.group_reencryptions(), 0u);
  for (std::uint64_t b = 0; b < engine.num_blocks() / 4; ++b) {
    const auto via_engine = engine.read_block(b);
    const auto via_reference = reference.read_block(b);
    ASSERT_EQ(via_engine.status, ReadStatus::kOk);
    ASSERT_EQ(via_reference.status, ReadStatus::kOk);
    EXPECT_EQ(via_engine.data, truth[b]);
    EXPECT_EQ(via_reference.data, truth[b]);
  }
}

TEST(BatchedWritePath, ShardedOverflowStormIsRaceFree) {
  // Overflow storm across a sharded region: every thread hammers hot
  // blocks in every shard, so group re-encryptions fire constantly and
  // concurrently (one per shard at a time, under shard locks). Run under
  // the TSan CI leg this is a data-race detector for the batched drain;
  // everywhere it is a last-writer-wins correctness check.
  SecureMemoryConfig config;
  config.size_bytes = 256 * 1024;
  ShardedSecureMemory memory(config, 4);
  const unsigned granule = memory.granule_blocks();
  constexpr unsigned kThreads = 4;
  constexpr int kOpsPerThread = 2000;

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0x570 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Concentrate on a few blocks per shard — maximal overflow rate.
        const std::uint64_t shard = rng.next_below(4);
        const std::uint64_t block =
            (shard * granule + rng.next_below(4)) % memory.num_blocks();
        if (memory.write_block(block, pattern(t * 1000003ULL + i)) !=
            Status::kOk)
          ++failures;
        if (i % 7 == 0 &&
            memory.read_block(block).status != ReadStatus::kOk)
          ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(memory.stats().group_reencryptions, 0u);

  // Quiescent: every block still verifies.
  for (std::uint64_t b = 0; b < memory.num_blocks(); ++b)
    EXPECT_EQ(memory.read_block(b).status, ReadStatus::kOk);
}

}  // namespace
}  // namespace secmem
