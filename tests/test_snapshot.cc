// Streaming snapshot pipeline tests: round-trips and tamper fuzz across
// all three engines, image equivalence with the per-element
// ReferenceMemory (tests/reference_memory.h) in both directions,
// rejection contracts (truncation, byte flips) leaving a usable region,
// the sharded container layout, staging storage kept across rejected
// restores, and restore under a stale hot tree cache.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"
#include "reference_memory.h"

namespace secmem {
namespace {

DataBlock pattern(std::uint8_t seed) {
  DataBlock b{};
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(seed * 73 + i);
  return b;
}

SecureMemoryConfig small_config() {
  SecureMemoryConfig config;
  config.size_bytes = 32 * 1024;
  return config;
}

/// Uneven writes so counter lines, delta groups, and the tree are all in
/// a non-trivial state before the image is taken.
std::vector<BlockWrite> populate_writes(std::uint64_t num_blocks,
                                        std::uint64_t rng_seed) {
  Xoshiro256 rng(rng_seed);
  std::vector<BlockWrite> writes;
  for (int i = 0; i < 300; ++i)
    writes.push_back({rng.next_below(num_blocks),
                      pattern(static_cast<std::uint8_t>(i))});
  for (std::uint64_t b = 0; b < 64; ++b)
    writes.push_back({b, pattern(static_cast<std::uint8_t>(b))});
  return writes;
}

void populate(SecureMemoryLike& engine, std::uint64_t rng_seed) {
  for (const BlockWrite& w : populate_writes(engine.num_blocks(), rng_seed))
    ASSERT_EQ(engine.write_block(w.block, w.data), Status::kOk);
}

void expect_populated(SecureMemoryLike& engine) {
  for (std::uint64_t b = 0; b < 64; ++b) {
    const auto r = engine.read_block(b);
    EXPECT_EQ(r.status, ReadStatus::kOk) << b;
    EXPECT_EQ(r.data, pattern(static_cast<std::uint8_t>(b))) << b;
  }
}

std::string image_of(SecureMemoryLike& engine) {
  std::stringstream out;
  EXPECT_EQ(engine.save(out), Status::kOk);
  return out.str();
}

std::string image_of(const ReferenceMemory& reference) {
  std::stringstream out;
  reference.save(out);
  return out.str();
}

/// Instances are labelled Plain (single-threaded SecureMemory),
/// Concurrent (kOneShard: the single-lock thread-safe configuration, a
/// one-shard ShardedSecureMemory) and Sharded (four shards).
enum class EngineKind { kPlain, kOneShard, kSharded };

std::unique_ptr<SecureMemoryLike> make_engine(EngineKind kind) {
  const SecureMemoryConfig config = small_config();
  switch (kind) {
    case EngineKind::kPlain: return std::make_unique<SecureMemory>(config);
    case EngineKind::kOneShard:
      return std::make_unique<ShardedSecureMemory>(config, 1);
    case EngineKind::kSharded:
      return std::make_unique<ShardedSecureMemory>(config, 4);
  }
  return nullptr;
}

class SnapshotPipeline : public ::testing::TestWithParam<EngineKind> {
 protected:
  EngineKind kind() const { return GetParam(); }
};

TEST_P(SnapshotPipeline, RoundTripRestoresEveryBlock) {
  auto original = make_engine(kind());
  populate(*original, 7);
  const std::string image = image_of(*original);

  auto restored = make_engine(kind());
  std::istringstream in(image);
  ASSERT_TRUE(restored->restore(in));
  expect_populated(*restored);

  // The restored region keeps working: fresh writes land and read back.
  ASSERT_EQ(restored->write_block(3, pattern(0xC3)), Status::kOk);
  EXPECT_EQ(restored->read_block(3).data, pattern(0xC3));
}

TEST_P(SnapshotPipeline, TruncatedImageRejectedRegionStaysUsable) {
  auto original = make_engine(kind());
  populate(*original, 11);
  const std::string image = image_of(*original);

  auto victim = make_engine(kind());
  populate(*victim, 13);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, image.size() / 2,
        image.size() - 1}) {
    std::istringstream truncated(image.substr(0, keep));
    EXPECT_FALSE(victim->restore(truncated)) << "kept " << keep;
  }
  // Whatever the engine's failure posture (plain resets to a zeroed
  // region, sharded keeps the old state), the region must stay usable.
  ASSERT_EQ(victim->write_block(5, pattern(0x55)), Status::kOk);
  EXPECT_EQ(victim->read_block(5).status, ReadStatus::kOk);
  EXPECT_EQ(victim->read_block(5).data, pattern(0x55));
}

TEST_P(SnapshotPipeline, FlippedByteFuzzNeverGoesUnnoticed) {
  auto original = make_engine(kind());
  populate(*original, 23);
  const std::string image = image_of(*original);

  Xoshiro256 rng(0xF1);
  for (int trial = 0; trial < 24; ++trial) {
    std::string bytes = image;
    const std::size_t offset = rng.next_below(bytes.size());
    const auto flip = static_cast<std::uint8_t>(1 + rng.next_below(255));
    bytes[offset] = static_cast<char>(
        static_cast<std::uint8_t>(bytes[offset]) ^ flip);

    auto victim = make_engine(kind());
    std::istringstream in(bytes);
    if (!victim->restore(in)) continue;  // rejected at the sealed root
    // Counter tree and sealed root verified clean, so the flip sits in a
    // data/lane/MAC section: it must surface on read as a correction, a
    // verdict, or (single-bit repairs) the original plaintext.
    bool noticed = false;
    for (std::uint64_t b = 0; b < 64 && !noticed; ++b) {
      const auto r = victim->read_block(b);
      noticed = r.status != ReadStatus::kOk ||
                r.data != pattern(static_cast<std::uint8_t>(b)) ||
                r.mac_evaluations > 0;
    }
    // Flips past the first 64 blocks' sections are invisible to these
    // reads — scrub the whole region to force full coverage.
    if (!noticed) {
      const auto report = victim->scrub_all(/*deep=*/true);
      noticed = report.repaired_mac + report.repaired_data +
                    report.uncorrectable + report.counter_tampered >
                0;
    }
    EXPECT_TRUE(noticed) << "flip at offset " << offset << " (image size "
                         << image.size() << ") went unnoticed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, SnapshotPipeline,
    ::testing::Values(EngineKind::kPlain, EngineKind::kOneShard,
                      EngineKind::kSharded),
    [](const auto& info) {
      return info.param == EngineKind::kPlain      ? "Plain"
             : info.param == EngineKind::kOneShard ? "Concurrent"
                                                   : "Sharded";
    });

// ------------------------------------------- reference-model invariants

std::string le64(std::uint64_t v) {
  std::string bytes(8, '\0');
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return bytes;
}

/// The sharded container's expected image built from one ReferenceMemory
/// per shard: granules striped round-robin, each shard under its own
/// derived master.
std::string sharded_reference_image(const SecureMemoryConfig& config,
                                    unsigned shards, std::uint64_t granule,
                                    const std::vector<BlockWrite>& writes) {
  std::vector<ReferenceMemory> refs;
  for (unsigned s = 0; s < shards; ++s) {
    SecureMemoryConfig shard_config = config;
    shard_config.size_bytes = config.size_bytes / shards;
    shard_config.master_key = reference_shard_master_key(config.master_key, s);
    refs.emplace_back(shard_config);
  }
  for (const BlockWrite& w : writes) {
    const std::uint64_t g = w.block / granule;
    refs[g % shards].write_block((g / shards) * granule + w.block % granule,
                                 w.data);
  }
  std::string image =
      std::string("SECSHRD1", 8) + le64(shards) + le64(granule);
  for (const ReferenceMemory& ref : refs) image += image_of(ref);
  return image;
}

/// Every engine's full image is byte-identical to the per-element
/// reference model's image of the same write stream.
TEST(SnapshotModeEquivalence, ImagesBitIdenticalAcrossModes) {
  const SecureMemoryConfig config = small_config();
  const std::vector<BlockWrite> writes =
      populate_writes(config.size_bytes / 64, 31);
  ReferenceMemory reference(config);
  for (const BlockWrite& w : writes) reference.write_block(w.block, w.data);
  const std::string reference_image = image_of(reference);
  SecureMemory plain(config);
  populate(plain, 31);
  EXPECT_EQ(image_of(plain), reference_image);

  for (const unsigned shards : {1u, 4u}) {
    ShardedSecureMemory sharded(config, shards);
    populate(sharded, 31);
    EXPECT_EQ(image_of(sharded),
              sharded_reference_image(config, shards,
                                      sharded.granule_blocks(), writes))
        << shards << " shard(s)";
  }
}

TEST(SnapshotModeEquivalence, CrossModeRestoreWorks) {
  // Engine image into the reference — and the reference's image back
  // into the engine.
  auto engine = make_engine(EngineKind::kPlain);
  populate(*engine, 37);
  ReferenceMemory reference(small_config());
  std::istringstream in(image_of(*engine));
  ASSERT_TRUE(reference.restore(in));
  for (std::uint64_t b = 0; b < 64; ++b) {
    const auto r = reference.read_block(b);
    EXPECT_EQ(r.status, ReadStatus::kOk) << b;
    EXPECT_EQ(r.data, pattern(static_cast<std::uint8_t>(b))) << b;
  }
  // The restored reference re-saves the engine's image unchanged.
  EXPECT_EQ(image_of(reference), image_of(*engine));

  for (const BlockWrite& w : populate_writes(reference.num_blocks(), 41))
    reference.write_block(w.block, w.data);
  std::istringstream back(image_of(reference));
  ASSERT_TRUE(engine->restore(back));
  expect_populated(*engine);
  EXPECT_EQ(image_of(*engine), image_of(reference));

  // Both sides keep evolving identically from the restored state, group
  // re-encryptions included: a drain decrypts under the per-block
  // counters the restore decoded.
  const std::uint64_t drains_before = reference.group_reencryptions();
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t block = i % 2 == 0 ? 7 : 9;
    const DataBlock fill = pattern(static_cast<std::uint8_t>(i));
    ASSERT_EQ(engine->write_block(block, fill), Status::kOk);
    reference.write_block(block, fill);
  }
  EXPECT_GT(reference.group_reencryptions(), drains_before);
  EXPECT_EQ(image_of(*engine), image_of(reference));
}

// ---------------------------------------------------- sharded atomicity

TEST(ShardedSnapshot, FailedRestoreLeavesOldStateIntact) {
  ShardedSecureMemory donor(small_config(), 4);
  populate(donor, 43);
  std::string image = image_of(donor);

  // Corrupt deep inside the LAST shard's slice: earlier shards stage
  // clean, so only all-or-nothing commit semantics keep them out of the
  // live region.
  image[image.size() - 70] = static_cast<char>(image[image.size() - 70] ^ 0x20);

  ShardedSecureMemory victim(small_config(), 4);
  populate(victim, 47);
  std::istringstream in(image);
  ASSERT_FALSE(victim.restore(in));
  EXPECT_FALSE(victim.poisoned());
  for (std::uint64_t b = 0; b < 64; ++b) {
    const auto r = victim.read_block(b);
    EXPECT_EQ(r.status, ReadStatus::kOk) << b;
    EXPECT_EQ(r.data, pattern(static_cast<std::uint8_t>(b))) << b;
  }
}

/// The container format, pinned: a 24-byte header (magic, shard count,
/// granule blocks) and then each shard's own image, in shard order.
TEST(ShardedSnapshot, ContainerIsHeaderThenShardImagesInOrder) {
  ShardedSecureMemory engine(small_config(), 4);
  populate(engine, 61);
  std::string expected = std::string("SECSHRD1", 8) +
                         le64(engine.num_shards()) +
                         le64(engine.granule_blocks());
  for (unsigned s = 0; s < engine.num_shards(); ++s) {
    expected += engine.with_shard_exclusive(
        s, [](SecureMemory& shard) { return image_of(shard); });
  }
  EXPECT_EQ(image_of(engine), expected);
}

// ------------------------------------------------ staging-storage reuse

TEST(SnapshotArena, RejectedRestoreKeepsStagingStorage) {
  SecureMemory donor(small_config());
  populate(donor, 67);
  const std::string image = image_of(donor);
  const std::string truncated = image.substr(0, image.size() - 100);
  std::string bad_root = image;  // the sealed root closes the image
  bad_root.back() = static_cast<char>(bad_root.back() ^ 0x01);

  SecureMemory engine(small_config());
  std::istringstream first(image);
  ASSERT_TRUE(engine.restore(first));
  const std::uint64_t parked = engine.snapshot_arena_bytes();
  ASSERT_GT(parked, 0u);
  for (const std::string& rejected : {truncated, bad_root}) {
    std::istringstream in(rejected);
    ASSERT_FALSE(engine.restore(in));
    EXPECT_EQ(engine.snapshot_arena_bytes(), parked);
  }
  std::istringstream good(image);
  ASSERT_TRUE(engine.restore(good));
  EXPECT_EQ(engine.snapshot_arena_bytes(), parked);
  expect_populated(engine);
}

/// One rejected shard aborts a sharded restore after the earlier shards
/// staged; every shard keeps its staging storage — for full containers
/// and for delta containers whose slices are full fallback images.
TEST(SnapshotArena, ShardedRejectedRestoreKeepsEveryShardsStorage) {
  const auto parked_per_shard = [](ShardedSecureMemory& engine) {
    std::vector<std::uint64_t> bytes;
    for (unsigned s = 0; s < engine.num_shards(); ++s) {
      bytes.push_back(engine.with_shard_exclusive(
          s, [](SecureMemory& m) { return m.snapshot_arena_bytes(); }));
    }
    return bytes;
  };
  ShardedSecureMemory donor(small_config(), 4);
  populate(donor, 71);
  // First delta of a fresh chain: every slice is a full fallback image.
  std::stringstream delta_out;
  ASSERT_EQ(donor.save_delta(delta_out), Status::kOk);
  const std::string image = image_of(donor);

  ShardedSecureMemory engine(small_config(), 4);
  std::istringstream first(image);
  ASSERT_TRUE(engine.restore(first));
  const std::vector<std::uint64_t> parked = parked_per_shard(engine);
  for (const std::uint64_t bytes : parked) ASSERT_GT(bytes, 0u);

  for (std::string rejected : {image, delta_out.str()}) {
    // Corrupt the LAST shard's slice so the earlier shards stage first.
    char& byte = rejected[rejected.size() - 70];
    byte = static_cast<char>(byte ^ 0x20);
    std::istringstream in(rejected);
    ASSERT_FALSE(engine.restore_delta(in));
    EXPECT_EQ(parked_per_shard(engine), parked);
  }
  std::istringstream good(image);
  ASSERT_TRUE(engine.restore(good));
  EXPECT_EQ(parked_per_shard(engine), parked);
  expect_populated(engine);
}

// --------------------------------------------------- stale tree cache

TEST(SnapshotTreeCache, RestoreInvalidatesHotTreeCache) {
  SecureMemory engine(small_config());
  populate(engine, 53);
  // Warm the tree cache on the pre-restore tree: repeated reads promote
  // the hot counter lines.
  for (int round = 0; round < 64; ++round)
    for (std::uint64_t b = 0; b < 16; ++b)
      ASSERT_EQ(engine.read_block(b).status, ReadStatus::kOk);

  SecureMemory donor(small_config());
  populate(donor, 59);
  for (std::uint64_t b = 0; b < 64; ++b)
    ASSERT_EQ(donor.write_block(b, pattern(static_cast<std::uint8_t>(b + 64))),
              Status::kOk);
  const std::string image = image_of(donor);

  std::istringstream in(image);
  ASSERT_TRUE(engine.restore(in));
  // Cached verdicts described the old tree; every read must now verify
  // against the restored one and see the donor's data.
  for (std::uint64_t b = 0; b < 64; ++b) {
    const auto r = engine.read_block(b);
    EXPECT_EQ(r.status, ReadStatus::kOk) << b;
    EXPECT_EQ(r.data, pattern(static_cast<std::uint8_t>(b + 64))) << b;
  }
  ASSERT_EQ(engine.write_block(2, pattern(0xEE)), Status::kOk);
  EXPECT_EQ(engine.read_block(2).data, pattern(0xEE));
}

}  // namespace
}  // namespace secmem
