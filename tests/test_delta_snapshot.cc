// Delta snapshot tests: MAC-sealed incremental images across all three
// engines — chain round-trips with bit-identical differential images,
// crash/restore loops where every failed (tampered) apply leaves the
// region intact for the clean retry, stale-delta replay rejection, key
// rotation breaking the chain and falling back to full images, callers
// that ship only full images through restore_delta, the exhaustive
// every-byte-flip-rejects contract on sealed delta images, pinned delta
// image bytes, the recycled delta buffers, and one trace event per
// rejected sharded restore. The codec underneath is unit tested in
// test_delta_image.cc.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "common/stats.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"

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

void populate(SecureMemoryLike& engine, std::uint64_t rng_seed) {
  Xoshiro256 rng(rng_seed);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(engine.write_block(rng.next_below(engine.num_blocks()),
                                 pattern(static_cast<std::uint8_t>(i))),
              Status::kOk);
  }
  for (std::uint64_t b = 0; b < 64; ++b)
    ASSERT_EQ(engine.write_block(b, pattern(static_cast<std::uint8_t>(b))),
              Status::kOk);
}

std::string image_of(SecureMemoryLike& engine) {
  std::stringstream out;
  EXPECT_EQ(engine.save(out), Status::kOk);
  return out.str();
}

std::string delta_of(SecureMemoryLike& engine) {
  std::stringstream out;
  EXPECT_EQ(engine.save_delta(out), Status::kOk);
  return out.str();
}

bool apply_delta(SecureMemoryLike& engine, const std::string& image) {
  std::istringstream in(image);
  return engine.restore_delta(in);
}

/// Instances are labelled Plain (single-threaded SecureMemory),
/// Concurrent (kOneShard: the single-lock thread-safe configuration, a
/// one-shard ShardedSecureMemory) and Sharded (four shards).
enum class EngineKind { kPlain, kOneShard, kSharded };

std::unique_ptr<SecureMemoryLike> make_engine(
    EngineKind kind, const SecureMemoryConfig& config = small_config()) {
  switch (kind) {
    case EngineKind::kPlain: return std::make_unique<SecureMemory>(config);
    case EngineKind::kOneShard:
      return std::make_unique<ShardedSecureMemory>(config, 1);
    case EngineKind::kSharded:
      return std::make_unique<ShardedSecureMemory>(config, 4);
  }
  return nullptr;
}

/// Parameterized over engine kind x what the source ships: save_delta
/// images (Delta), or plain save() images (FullOnly) — a caller that
/// never emits deltas. restore_delta accepts both, so every contract
/// below must hold either way.
class DeltaSnapshot
    : public ::testing::TestWithParam<std::tuple<EngineKind, bool>> {
 protected:
  EngineKind kind() const { return std::get<0>(GetParam()); }
  bool ships_deltas() const { return std::get<1>(GetParam()); }
  std::string ship(SecureMemoryLike& source) const {
    return ships_deltas() ? delta_of(source) : image_of(source);
  }
};

TEST_P(DeltaSnapshot, ChainRoundTripsBitIdentically) {
  auto source = make_engine(kind());
  auto replica = make_engine(kind());
  populate(*source, 7);

  // Round 0: a fresh engine has no delta base, so even the first
  // save_delta ships a full image that seeds the replica and aligns both
  // chains.
  ASSERT_TRUE(apply_delta(*replica, ship(*source)));

  // Incremental rounds: small mutations, delta over, applied in order.
  Xoshiro256 rng(0xBEEF);
  for (int round = 1; round <= 4; ++round) {
    for (int w = 0; w < 8; ++w) {
      ASSERT_EQ(
          source->write_block(rng.next_below(source->num_blocks()),
                              pattern(static_cast<std::uint8_t>(round * 16 + w))),
          Status::kOk);
    }
    const std::string delta = ship(*source);
    ASSERT_TRUE(apply_delta(*replica, delta)) << "round " << round;
  }

  // Differential check: the replica's full image is bit-identical to
  // the source's — delta restore reconstructed EXACTLY the same
  // ciphertext, lanes, MACs, counters, and tree.
  EXPECT_EQ(image_of(*source), image_of(*replica));

  // And the replica keeps working.
  ASSERT_EQ(replica->write_block(3, pattern(0xC3)), Status::kOk);
  EXPECT_EQ(replica->read_block(3).data, pattern(0xC3));
}

TEST_P(DeltaSnapshot, StaleDeltaReplayRejected) {
  auto source = make_engine(kind());
  auto replica = make_engine(kind());
  populate(*source, 11);
  ASSERT_TRUE(apply_delta(*replica, ship(*source)));

  ASSERT_EQ(source->write_block(5, pattern(0x55)), Status::kOk);
  const std::string delta = ship(*source);
  ASSERT_TRUE(apply_delta(*replica, delta));

  if (ships_deltas()) {
    // The replica's chain moved past the delta's base: replaying it must
    // be refused (base-seal mismatch), leaving the replica untouched.
    const std::string before = image_of(*replica);
    EXPECT_FALSE(apply_delta(*replica, delta));
    EXPECT_EQ(image_of(*replica), before);
  } else {
    // Full images carry no chain base, and full-image restore is
    // idempotent by design — replay is allowed and harmless.
    EXPECT_TRUE(apply_delta(*replica, delta));
  }
  EXPECT_EQ(replica->read_block(5).data, pattern(0x55));
}

TEST_P(DeltaSnapshot, CrashRestoreLoopSurvivesTamperedAttempts) {
  auto source = make_engine(kind());
  auto replica = make_engine(kind());
  populate(*source, 13);
  ASSERT_TRUE(apply_delta(*replica, ship(*source)));

  Xoshiro256 rng(0xC4A5);
  for (int round = 0; round < 4; ++round) {
    for (int w = 0; w < 6; ++w) {
      ASSERT_EQ(
          source->write_block(
              rng.next_below(source->num_blocks()),
              pattern(static_cast<std::uint8_t>(round * 8 + w))),
          Status::kOk);
    }
    const std::string delta = ship(*source);
    // A "crash" mid-transfer: a damaged copy arrives first. The failed
    // apply must leave the replica exactly where it was so the clean
    // retry of the SAME delta still lands on its base.
    std::string damaged = delta;
    const std::size_t offset = rng.next_below(damaged.size());
    damaged[offset] = static_cast<char>(
        static_cast<std::uint8_t>(damaged[offset]) ^
        static_cast<std::uint8_t>(1 + rng.next_below(255)));
    const bool damaged_ok = apply_delta(*replica, damaged);
    if (ships_deltas()) {
      // Sealed delta images reject EVERY flip before any byte applies.
      EXPECT_FALSE(damaged_ok) << "round " << round << " offset " << offset;
    }
    // Recover with the clean copy. A failed delta left its base intact,
    // so the retry lands; in full-only mode a data-section flip can be
    // ACCEPTED at stage (it surfaces on read — the full-image posture,
    // see test_snapshot.cc), so re-apply unconditionally there: full
    // restores are idempotent.
    if (!damaged_ok || !ships_deltas()) {
      ASSERT_TRUE(apply_delta(*replica, delta)) << "round " << round;
    }
  }
  EXPECT_EQ(image_of(*source), image_of(*replica));
}

TEST_P(DeltaSnapshot, RotationBreaksChainAndRebasesOnFullFallback) {
  auto source = make_engine(kind());
  auto replica = make_engine(kind());
  populate(*source, 17);
  ASSERT_TRUE(apply_delta(*replica, ship(*source)));

  // Rotation re-keys the region and invalidates the seal chain; both
  // sides rotate (a replica under the old master could not decode the
  // new images).
  ASSERT_TRUE(source->rotate_master_key(0xD0D0'CAFE));
  ASSERT_TRUE(replica->rotate_master_key(0xD0D0'CAFE));

  ASSERT_EQ(source->write_block(9, pattern(0x99)), Status::kOk);
  const std::string fallback = ship(*source);
  // The chain is broken, so even save_delta ships a full image (the
  // sharded container, at any shard count, carries full per-shard
  // slices), which re-bases the replica...
  if (kind() == EngineKind::kPlain) {
    EXPECT_EQ(fallback.compare(0, 8, "SECMEM01"), 0);
  }
  ASSERT_TRUE(apply_delta(*replica, fallback));
  EXPECT_EQ(replica->read_block(9).data, pattern(0x99));

  // ...and the chain is live again: the next delta is incremental and
  // applies cleanly.
  ASSERT_EQ(source->write_block(10, pattern(0xAA)), Status::kOk);
  ASSERT_TRUE(apply_delta(*replica, ship(*source)));
  EXPECT_EQ(replica->read_block(10).data, pattern(0xAA));
  EXPECT_EQ(image_of(*source), image_of(*replica));
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesBothModes, DeltaSnapshot,
    ::testing::Combine(::testing::Values(EngineKind::kPlain,
                                         EngineKind::kOneShard,
                                         EngineKind::kSharded),
                       ::testing::Bool()),
    [](const auto& info) {
      const char* engine =
          std::get<0>(info.param) == EngineKind::kPlain ? "Plain"
          : std::get<0>(info.param) == EngineKind::kOneShard
              ? "Concurrent"
              : "Sharded";
      return std::string(engine) +
             (std::get<1>(info.param) ? "Delta" : "FullOnly");
    });

// -------------------------------------------------- tamper exhaustive

/// Every single byte of a sealed INCREMENTAL delta image is either
/// structural (magic, geometry — checked against the engine) or covered
/// by the command-section MAC / base seal, so flipping ANY byte must
/// reject before a single byte is applied. (Full fallback images don't
/// have this property — a ciphertext flip there surfaces on read, see
/// test_snapshot.cc — which is why this drills the delta format only.)
class DeltaTamper : public ::testing::TestWithParam<EngineKind> {};

TEST_P(DeltaTamper, EveryByteFlipRejectsBeforeApply) {
  auto source = make_engine(GetParam());
  auto replica = make_engine(GetParam());
  populate(*source, 19);
  ASSERT_TRUE(apply_delta(*replica, delta_of(*source)));

  ASSERT_EQ(source->write_block(2, pattern(0x22)), Status::kOk);
  ASSERT_EQ(source->write_block(200, pattern(0xD2)), Status::kOk);
  const std::string delta = delta_of(*source);
  const std::string before = image_of(*replica);

  Xoshiro256 rng(0x7A3);
  // Dense sweep over the framing (container + image headers, seals,
  // MACs, length tables all sit early), random sample over the rest.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < delta.size() && i < 160; ++i)
    offsets.push_back(i);
  for (int i = 0; i < 200; ++i) offsets.push_back(rng.next_below(delta.size()));

  for (const std::size_t offset : offsets) {
    std::string bytes = delta;
    const auto flip = static_cast<std::uint8_t>(1 + rng.next_below(255));
    bytes[offset] =
        static_cast<char>(static_cast<std::uint8_t>(bytes[offset]) ^ flip);
    EXPECT_FALSE(apply_delta(*replica, bytes))
        << "flip 0x" << std::hex << int{flip} << " at offset " << std::dec
        << offset << " accepted";
  }
  // Truncations reject too.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{40}, delta.size() / 2,
        delta.size() - 1}) {
    EXPECT_FALSE(apply_delta(*replica, delta.substr(0, keep)))
        << "kept " << keep;
  }

  // All those failures left the replica bit-identical...
  EXPECT_EQ(image_of(*replica), before);
  // ...so the clean delta still applies.
  ASSERT_TRUE(apply_delta(*replica, delta));
  EXPECT_EQ(replica->read_block(2).data, pattern(0x22));
  EXPECT_EQ(image_of(*source), image_of(*replica));
}

/// Runs `fn` on shard 0's engine (a plain engine is its own shard 0).
template <typename Fn>
void with_shard0(SecureMemoryLike& engine, Fn&& fn) {
  if (auto* sharded = dynamic_cast<ShardedSecureMemory*>(&engine))
    sharded->with_shard_exclusive(0, std::forward<Fn>(fn));
  else
    fn(dynamic_cast<SecureMemory&>(engine));
}

/// Region block of shard 0's local block `local`.
std::uint64_t shard0_block(const SecureMemoryLike& engine,
                           std::uint64_t local) {
  const auto* sharded = dynamic_cast<const ShardedSecureMemory*>(&engine);
  if (sharded == nullptr) return local;
  const std::uint64_t granule = sharded->granule_blocks();
  return (local / granule) * sharded->num_shards() * granule +
         local % granule;
}

/// The commit folds the off-chip tree path of every counter line a delta
/// rewrites into the tree, so staging authenticates those paths: a
/// tampered node on one rejects the delta with the region untouched.
TEST_P(DeltaTamper, TreeTamperOnRewrittenPathRejectsAtStage) {
  SecureMemoryConfig config;
  config.size_bytes = 1024 * 1024;
  config.onchip_bytes = 64;  // only the root level on chip
  auto source = make_engine(GetParam(), config);
  auto replica = make_engine(GetParam(), config);
  populate(*source, 23);
  ASSERT_TRUE(apply_delta(*replica, delta_of(*source)));
  ASSERT_EQ(source->write_block(0, pattern(0x0A)), Status::kOk);
  const std::string delta = delta_of(*source);

  // Flip a sibling slot of the off-chip level-1 node above block 0's
  // counter line: the line's own slot still matches, the node's MAC
  // does not. The sibling line is one the delta leaves alone.
  std::uint64_t sibling_block = 0;
  with_shard0(*replica, [&sibling_block](SecureMemory& engine) {
    ASSERT_GE(engine.layout().tree().offchip_levels(), 2u);
    const std::uint64_t line = engine.counters().storage_line_of(0);
    const std::uint64_t sibling = line ^ 1;
    const std::uint64_t node = BonsaiGeometry::parent_of(line);
    ASSERT_EQ(BonsaiGeometry::parent_of(sibling), node);
    engine.untrusted().tree().corrupt_node(
        1, node, 64 * BonsaiGeometry::slot_in_parent(sibling) + 5);
    sibling_block = sibling * engine.counters().blocks_per_storage_line();
  });
  sibling_block = shard0_block(*replica, sibling_block);

  const std::string before = image_of(*replica);
  EXPECT_FALSE(apply_delta(*replica, delta));
  EXPECT_EQ(image_of(*replica), before);
  // Blocks off the tampered path still read their old data...
  for (std::uint64_t b = replica->num_blocks() / 2; b < replica->num_blocks();
       b += 97) {
    const auto got = replica->read_block(b);
    EXPECT_EQ(got.status, ReadStatus::kOk) << "block " << b;
    EXPECT_EQ(got.data, source->read_block(b).data) << "block " << b;
  }
  // ...and the tamper is still reported, not wiped or folded in.
  EXPECT_EQ(replica->read_block(sibling_block).status,
            ReadStatus::kCounterTampered);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DeltaTamper,
                         ::testing::Values(EngineKind::kPlain,
                                           EngineKind::kOneShard,
                                           EngineKind::kSharded),
                         [](const auto& info) {
                           return info.param == EngineKind::kPlain ? "Plain"
                                  : info.param == EngineKind::kOneShard
                                      ? "Concurrent"
                                      : "Sharded";
                         });

// ------------------------------------------------- delta observability

TEST(DeltaDirtyPlane, TracksWritesAndShrinksImages) {
  SecureMemoryConfig config;
  config.size_bytes = 256 * 1024;
  SecureMemory engine(config);
  populate(engine, 29);

  // Aligning the chain clears the dirty plane.
  EXPECT_FALSE(engine.has_snapshot_base());
  const std::string full = image_of(engine);
  EXPECT_TRUE(engine.has_snapshot_base());
  EXPECT_EQ(engine.dirty_granules(), 0u);

  // A hot-set touching one granule dirties exactly one granule.
  const auto granule = engine.delta_granule_blocks();
  for (std::uint64_t b = 0; b < 4; ++b)
    ASSERT_EQ(engine.write_block(b, pattern(static_cast<std::uint8_t>(b))),
              Status::kOk);
  EXPECT_EQ(engine.dirty_granules(), 1u);
  ASSERT_EQ(engine.write_block(granule, pattern(0x77)), Status::kOk);
  EXPECT_EQ(engine.dirty_granules(), 2u);

  // The delta ships only those granules: a small fraction of the image.
  const std::uint64_t epoch_before = engine.snapshot_epoch();
  const std::string delta = delta_of(engine);
  EXPECT_LT(delta.size() * 4, full.size());
  EXPECT_EQ(engine.snapshot_epoch(), epoch_before + 1);
  EXPECT_EQ(engine.dirty_granules(), 0u);
}

TEST(DeltaDirtyPlane, AlternatingGranulesFitTheLargestImage) {
  SecureMemory source(small_config());
  SecureMemory replica(small_config());
  populate(source, 37);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  // Every other granule dirty: each gets its own command, the longest
  // command stream save_delta emits.
  for (std::uint64_t b = 0; b < source.num_blocks();
       b += 2 * source.delta_granule_blocks())
    ASSERT_EQ(source.write_block(b, pattern(0xA1)), Status::kOk);
  const std::string delta = delta_of(source);
  EXPECT_LE(delta.size(), source.max_image_bytes());
  EXPECT_LE(source.image_bytes(), source.max_image_bytes());
  ASSERT_TRUE(apply_delta(replica, delta));
  EXPECT_EQ(image_of(source), image_of(replica));
}

TEST(DeltaSharded, AggregatesDirtyGranulesAndTimesRestores) {
  ShardedSecureMemory source(small_config(), 4);
  ShardedSecureMemory replica(small_config(), 4);
  populate(source, 31);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  EXPECT_EQ(source.dirty_granules(), 0u);

  ASSERT_EQ(source.write_block(0, pattern(0xE0)), Status::kOk);
  EXPECT_GE(source.dirty_granules(), 1u);

  const std::string delta = delta_of(source);
  SnapshotTiming timing;
  std::istringstream in(delta);
  ASSERT_TRUE(replica.restore_timed(in, timing));
  EXPECT_GT(timing.stage_s, 0.0);
  EXPECT_GT(timing.commit_s, 0.0);

  // restore_timed takes full containers too (the bench's other mode).
  const std::string full = image_of(source);
  // One dirty granule ships as a delta well under the full container.
  EXPECT_LT(delta.size() * 4, full.size());
  SnapshotTiming full_timing;
  std::istringstream full_in(full);
  ASSERT_TRUE(replica.restore_timed(full_in, full_timing));
  EXPECT_GT(full_timing.stage_s, 0.0);
  EXPECT_GT(full_timing.commit_s, 0.0);
}

TEST(DeltaSharded, EveryRejectedContainerTracesOnce) {
  TraceRing ring(64);
  ShardedSecureMemory source(small_config(), 4);
  ShardedSecureMemory replica(small_config(), 4);
  populate(source, 33);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  ASSERT_EQ(source.write_block(0, pattern(0xE1)), Status::kOk);
  const std::string delta = delta_of(source);
  const std::string full = image_of(source);

  // Container layout: magic, shard count, granule blocks (8 bytes each);
  // a delta container then has one slice length per shard.
  const auto with_u64 = [](std::string image, std::size_t off,
                           std::uint64_t v) {
    std::uint8_t le[8];
    store_le64(le, v);
    std::memcpy(image.data() + off, le, sizeof(le));
    return image;
  };
  const auto flipped = [](std::string image, std::size_t off) {
    image[off] = static_cast<char>(image[off] ^ 0x01);
    return image;
  };
  struct Case {
    const char* what;
    std::string image;
    bool delta_api;
  };
  // The longest slice a shard may claim is its engine's largest image.
  const std::uint64_t cap = replica.with_shard_exclusive(
      0, [](SecureMemory& m) { return m.max_image_bytes(); });
  const std::vector<Case> cases = {
      {"full: magic", flipped(full, 0), false},
      {"full: short magic", full.substr(0, 5), false},
      {"full: delta container", delta, false},
      {"full: shard count", with_u64(full, 8, 3), false},
      {"full: granule", with_u64(full, 16, 1), false},
      {"full: short shard image", full.substr(0, full.size() - 1), false},
      {"delta: magic", flipped(delta, 7), true},
      {"delta: shard count", with_u64(delta, 8, 5), true},
      {"delta: granule", with_u64(delta, 16, 0), true},
      {"delta: slice shorter than a magic", with_u64(delta, 24, 7), true},
      {"delta: slice over the cap", with_u64(delta, 32, 1ull << 40), true},
      {"delta: slice at cap + 1", with_u64(delta, 24, cap + 1), true},
      {"delta: short length table", delta.substr(0, 24 + 8 * 3 + 3), true},
      {"delta: short payload", delta.substr(0, delta.size() - 1), true},
  };
  replica.attach_trace(&ring);
  // Every rejected delta-accepting call also counts one delta reject.
  std::uint64_t delta_rejects = 0;
  const auto expect_one_reject = [&](const char* what, bool delta_api) {
    const std::vector<TraceEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 1u) << what;
    EXPECT_EQ(events[0].kind, TraceEvent::Kind::kRestore) << what;
    EXPECT_EQ(events[0].outcome, Status::kIntegrityViolation) << what;
    ring.clear();
    if (delta_api) ++delta_rejects;
    StatRegistry registry;
    replica.publish_metrics(registry, "engine");
    EXPECT_EQ(registry.counter_value("engine.snapshot.delta.rejects"),
              delta_rejects)
        << what;
  };
  for (const Case& c : cases) {
    std::istringstream in(c.image);
    EXPECT_FALSE(c.delta_api ? replica.restore_delta(in)
                             : replica.restore(in))
        << c.what;
    expect_one_reject(c.what, c.delta_api);
  }
  SnapshotTiming timing;
  std::istringstream timed_in(flipped(delta, 0));
  EXPECT_FALSE(replica.restore_timed(timed_in, timing));
  expect_one_reject("timed: magic", true);

  // Every rejection left the region as it was: the clean delta applies.
  ASSERT_TRUE(apply_delta(replica, delta));
  EXPECT_EQ(image_of(replica), image_of(source));
}

// --------------------------------------------- snapshot IO failures

/// A streambuf that accepts `capacity` bytes and then fails every
/// further write — a full disk / closed pipe stand-in.
class TruncatingSink : public std::streambuf {
 public:
  explicit TruncatingSink(std::size_t capacity) : capacity_(capacity) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof()))
      return traits_type::not_eof(ch);
    if (written_ >= capacity_) return traits_type::eof();
    ++written_;
    return ch;
  }

 private:
  std::size_t capacity_;
  std::size_t written_ = 0;
};

TEST(DeltaSaveIoFailure, FailedDeltaSaveDoesNotAdvanceChain) {
  SecureMemory source(small_config());
  SecureMemory replica(small_config());
  populate(source, 41);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));

  ASSERT_EQ(source.write_block(8, pattern(0x88)), Status::kOk);
  const std::uint64_t epoch = source.snapshot_epoch();
  const std::uint64_t dirty = source.dirty_granules();
  ASSERT_GE(dirty, 1u);

  // A lost delta must not advance the chain: otherwise every later
  // delta seals against a base no replica ever saw.
  TruncatingSink sink(32);  // dies mid-header
  std::ostream bad(&sink);
  EXPECT_EQ(source.save_delta(bad), Status::kSnapshotIoError);
  EXPECT_EQ(source.snapshot_epoch(), epoch);
  EXPECT_EQ(source.dirty_granules(), dirty);
  EXPECT_TRUE(source.has_snapshot_base());

  // The chain still points at the replica's state, so the retry lands.
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  EXPECT_EQ(image_of(source), image_of(replica));
  EXPECT_EQ(replica.read_block(8).data, pattern(0x88));
}

TEST(DeltaSaveIoFailure, FailedFullSaveKeepsPreviousAlignmentPoint) {
  SecureMemory source(small_config());
  SecureMemory replica(small_config());
  populate(source, 43);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  ASSERT_EQ(source.write_block(12, pattern(0x21)), Status::kOk);

  TruncatingSink sink(1000);  // well short of a full image
  std::ostream bad(&sink);
  EXPECT_EQ(source.save(bad), Status::kSnapshotIoError);

  // The failed full save did NOT re-base the chain, so the next delta
  // still chains on the replica's state.
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  EXPECT_EQ(image_of(source), image_of(replica));
  EXPECT_EQ(replica.read_block(12).data, pattern(0x21));
}

TEST(DeltaSaveIoFailure, ShardedContainerFailureBreaksChainsAndRecovers) {
  ShardedSecureMemory source(small_config(), 4);
  ShardedSecureMemory replica(small_config(), 4);
  populate(source, 47);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));

  ASSERT_EQ(source.write_block(5, pattern(0x51)), Status::kOk);
  // The shard engines align their chains into private buffers BEFORE
  // the container write can fail, so a container-level failure must
  // break the chains: those bases describe an image nothing ever saw.
  TruncatingSink sink(64);  // survives the header, dies in the payloads
  std::ostream bad(&sink);
  EXPECT_EQ(source.save_delta(bad), Status::kSnapshotIoError);

  // The retry falls back to full shard images and still lands the
  // replica on the source's exact state.
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  EXPECT_EQ(image_of(source), image_of(replica));
  EXPECT_EQ(replica.read_block(5).data, pattern(0x51));
}

TEST(DeltaSaveIoFailure, ShardedFullSaveFailingMidStreamBreaksChains) {
  ShardedSecureMemory source(small_config(), 4);
  ShardedSecureMemory replica(small_config(), 4);
  populate(source, 53);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));

  // Dirty shards 0 and 1: their images reach the stream before it fails.
  const std::uint64_t in_shard1 = source.granule_blocks();
  ASSERT_EQ(source.shard_of_block(5), 0u);
  ASSERT_EQ(source.shard_of_block(in_shard1), 1u);
  ASSERT_EQ(source.write_block(5, pattern(0x5A)), Status::kOk);
  ASSERT_EQ(source.write_block(in_shard1, pattern(0x5B)), Status::kOk);

  const std::uint64_t shard_image = source.with_shard_exclusive(
      0, [](SecureMemory& m) { return m.image_bytes(); });
  // 24-byte container header, shards 0-1 whole, then half of shard 2.
  TruncatingSink sink(24 + 2 * shard_image + shard_image / 2);
  std::ostream bad(&sink);
  EXPECT_EQ(source.save(bad), Status::kSnapshotIoError);

  // Shards 0-1 aligned their chains on images that never persisted as a
  // container. Had those chains survived, the next delta would seal
  // against a base the replica never saw, and the replica would refuse it.
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  EXPECT_EQ(image_of(source), image_of(replica));
  EXPECT_EQ(replica.read_block(5).data, pattern(0x5A));
  EXPECT_EQ(replica.read_block(in_shard1).data, pattern(0x5B));
}

// ------------------------------------------------ pinned image bytes

/// FNV-1a over an image: a stable fingerprint to pin whole images with.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A fixed write sequence after the chain is aligned: scattered writes
/// plus one block rewritten past its delta budget, so the delta carries
/// a group re-encryption as well as single dirty granules.
void dirty_fixed_set(SecureMemoryLike& engine, std::uint64_t rng_seed) {
  Xoshiro256 rng(rng_seed);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(engine.write_block(rng.next_below(engine.num_blocks()),
                                 pattern(static_cast<std::uint8_t>(i + 100))),
              Status::kOk);
  }
  for (int i = 0; i < 140; ++i)
    ASSERT_EQ(engine.write_block(70, pattern(static_cast<std::uint8_t>(i))),
              Status::kOk);
}

// The fingerprints below were taken before the delta path moved to
// recycled buffers, span staging and the parts-wise command MAC: a
// delta image is the same bytes however it is produced.
TEST(DeltaImageBytes, EngineDeltaChainIsPinned) {
  SecureMemoryConfig config;
  config.size_bytes = 256 * 1024;
  SecureMemory engine(config);
  populate(engine, 73);
  (void)image_of(engine);  // align the chain on a full image
  dirty_fixed_set(engine, 79);
  const std::string first = delta_of(engine);
  dirty_fixed_set(engine, 83);
  const std::string second = delta_of(engine);
  EXPECT_EQ(first.size(), 136710u);
  EXPECT_EQ(fnv1a(first), 0x6c00b9b41998fb8eULL);
  EXPECT_EQ(second.size(), 160028u);
  EXPECT_EQ(fnv1a(second), 0x5df19ced71983f3dULL);
}

TEST(DeltaImageBytes, ShardedDeltaContainerIsPinned) {
  SecureMemoryConfig config;
  config.size_bytes = 256 * 1024;
  ShardedSecureMemory engine(config, 4);
  populate(engine, 89);
  (void)image_of(engine);
  dirty_fixed_set(engine, 97);
  const std::string first = delta_of(engine);
  dirty_fixed_set(engine, 101);
  const std::string second = delta_of(engine);
  EXPECT_EQ(first.size(), 132317u);
  EXPECT_EQ(fnv1a(first), 0x56cb71b04532d3d6ULL);
  EXPECT_EQ(second.size(), 155770u);
  EXPECT_EQ(fnv1a(second), 0xad55209446405c00ULL);
}

// ---------------------------------------------- recycled delta buffers

TEST(DeltaArena, EngineCountsAndRecyclesDeltaBuffers) {
  SecureMemory source(small_config());
  SecureMemory replica(small_config());
  populate(source, 103);
  {
    std::istringstream in(image_of(source));
    ASSERT_TRUE(replica.restore(in));
  }
  // save_delta's command buffer, and stage_delta's stream buffer and
  // parsed commands, count as parked snapshot storage.
  const std::uint64_t source_before = source.snapshot_arena_bytes();
  const std::uint64_t replica_before = replica.snapshot_arena_bytes();
  ASSERT_EQ(source.write_block(3, pattern(1)), Status::kOk);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  const std::uint64_t source_steady = source.snapshot_arena_bytes();
  const std::uint64_t replica_steady = replica.snapshot_arena_bytes();
  EXPECT_GT(source_steady, source_before);
  EXPECT_GT(replica_steady, replica_before);
  // The same dirty set every cycle reuses them: nothing grows.
  for (int cycle = 0; cycle < 50; ++cycle) {
    ASSERT_EQ(source.write_block(3, pattern(static_cast<std::uint8_t>(cycle))),
              Status::kOk);
    ASSERT_TRUE(apply_delta(replica, delta_of(source)));
    EXPECT_EQ(source.snapshot_arena_bytes(), source_steady);
    EXPECT_EQ(replica.snapshot_arena_bytes(), replica_steady);
  }
  EXPECT_EQ(image_of(source), image_of(replica));
}

TEST(DeltaArena, StreamStagingCommitsLikeRestoreDelta) {
  // stage_image(istream&) reads a delta into the arena's stream buffer
  // and stages there; the staged delta borrows it until commit_image.
  SecureMemory source(small_config());
  SecureMemory replica(small_config());
  populate(source, 109);
  {
    std::istringstream in(image_of(source));
    ASSERT_TRUE(replica.restore(in));
  }
  ASSERT_EQ(source.write_block(9, pattern(0x99)), Status::kOk);
  const std::string delta = delta_of(source);
  std::string tampered = delta;
  tampered.back() = static_cast<char>(tampered.back() ^ 0x01);  // trailer
  {
    std::istringstream in(tampered);
    EXPECT_FALSE(replica.stage_image(in, true).has_value());
  }
  std::istringstream in(delta);
  auto staged = replica.stage_image(in, true);
  ASSERT_TRUE(staged.has_value());
  ASSERT_TRUE(replica.commit_image(std::move(*staged)));
  EXPECT_EQ(image_of(source), image_of(replica));
}

TEST(DeltaArena, ShardedBuffersStayBoundedAcrossCycles) {
  SecureMemoryConfig config;
  config.size_bytes = 256 * 1024;
  ShardedSecureMemory source(config, 4);
  ShardedSecureMemory replica(config, 4);
  populate(source, 107);
  {
    std::istringstream in(image_of(source));
    ASSERT_TRUE(replica.restore(in));
  }
  const auto hot_writes = [&source](std::uint8_t round) {
    for (std::uint64_t b = 0; b < source.num_blocks(); b += 97)
      ASSERT_EQ(source.write_block(b, pattern(round)), Status::kOk);
  };
  // The container's buffers, then each shard's arena.
  const auto parked = [](ShardedSecureMemory& engine) {
    std::vector<std::uint64_t> bytes{engine.delta_buffer_bytes()};
    for (unsigned s = 0; s < engine.num_shards(); ++s) {
      bytes.push_back(engine.with_shard_exclusive(
          s, [](SecureMemory& m) { return m.snapshot_arena_bytes(); }));
    }
    return bytes;
  };
  hot_writes(0);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  const std::vector<std::uint64_t> source_steady = parked(source);
  const std::vector<std::uint64_t> replica_steady = parked(replica);
  EXPECT_GT(source_steady[0], 0u);
  EXPECT_GT(replica_steady[0], 0u);
  for (int cycle = 1; cycle <= 50; ++cycle) {
    hot_writes(static_cast<std::uint8_t>(cycle));
    ASSERT_TRUE(apply_delta(replica, delta_of(source)));
    ASSERT_EQ(parked(source), source_steady) << "cycle " << cycle;
    ASSERT_EQ(parked(replica), replica_steady) << "cycle " << cycle;
  }

  // A delta rejected for a tampered command MAC keeps every buffer, and
  // the clean copy still lands. The container header is 24 bytes plus a
  // length per shard; shard 0's MAC closes its 80-byte slice header.
  hot_writes(51);
  const std::string delta = delta_of(source);
  std::string tampered = delta;
  const std::size_t shard0_mac = 24 + 8 * source.num_shards() + 72;
  tampered[shard0_mac] = static_cast<char>(tampered[shard0_mac] ^ 0x01);
  ASSERT_FALSE(apply_delta(replica, tampered));
  EXPECT_EQ(parked(replica), replica_steady);
  ASSERT_TRUE(apply_delta(replica, delta));
  EXPECT_EQ(parked(replica), replica_steady);

  // A rotation breaks every chain, so the next delta ships full shard
  // images. Neither side may keep a buffer that size parked afterwards.
  const std::uint64_t shard_image = source.with_shard_exclusive(
      0, [](SecureMemory& m) { return m.image_bytes(); });
  ASSERT_TRUE(source.rotate_master_key(0x1234));
  ASSERT_TRUE(replica.rotate_master_key(0x1234));
  const std::string fallback = delta_of(source);
  EXPECT_GT(fallback.size(), source.num_shards() * shard_image);
  EXPECT_LT(source.delta_buffer_bytes(), shard_image);
  ASSERT_TRUE(apply_delta(replica, fallback));
  EXPECT_LT(replica.delta_buffer_bytes(), shard_image);
  hot_writes(52);
  ASSERT_TRUE(apply_delta(replica, delta_of(source)));
  EXPECT_EQ(image_of(source), image_of(replica));
}

}  // namespace
}  // namespace secmem
