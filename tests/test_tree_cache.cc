// Verified-frontier tree cache (tree/tree_cache.h): correctness against
// the eager walk, and the trust model under adversarial corruption.
//
// The cache's design invariant is *observational equivalence*: for any
// operation sequence the post-flush backing tree is bit-identical to what
// eager update_leaf calls would have produced, and every verify outcome
// matches eager verify_leaf — with one documented divergence: backing
// bytes corrupted while a node is resident are masked until the entry
// leaves the cache (the on-chip copy is not attacker-reachable). These
// tests pin down both halves: the equivalence by twin-driving an eager
// and a cached tree through randomized ops, the divergence by corrupting
// under residency and checking detection resumes after eviction/flush.
#include "tree/tree_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"
#include "tree/bonsai_tree.h"

namespace secmem {
namespace {

constexpr std::uint64_t kLines = 8192;  // L1=1024, L2=128, L3=16; top=3

/// An eager tree and a cached tree over the same logical leaf storage.
/// Every mutation goes to both; every check must agree.
class TreeCacheTwin : public ::testing::Test {
 protected:
  TreeCacheTwin()
      : geometry_(kLines, 3 * 1024),
        key_{0x1234'5678'9abc'def0ULL,
             Aes128::Key{0x0f, 0xed, 0xcb, 0xa9, 0x87, 0x65, 0x43, 0x21}},
        eager_tree_(geometry_, key_),
        cached_tree_(geometry_, key_),
        cache_(cached_tree_, TreeCacheConfig{8}, &metrics_),
        leaves_(kLines * BonsaiTree::kLineBytes, 0) {}

  BonsaiTree::LineView line(std::uint64_t i) const {
    return BonsaiTree::LineView(
        leaves_.data() + i * BonsaiTree::kLineBytes, BonsaiTree::kLineBytes);
  }

  void set_line(std::uint64_t i, Xoshiro256& rng) {
    std::uint8_t* p = leaves_.data() + i * BonsaiTree::kLineBytes;
    for (std::size_t b = 0; b < BonsaiTree::kLineBytes; ++b)
      p[b] = static_cast<std::uint8_t>(rng.next());
  }

  void update_both(std::uint64_t i) {
    eager_tree_.update_leaf(i, line(i));
    cache_.update(i, line(i));
  }

  /// Interior + root levels of both trees must be byte-identical.
  void expect_trees_identical(const char* when) {
    for (unsigned lvl = 1; lvl < geometry_.total_levels(); ++lvl)
      for (std::uint64_t n = 0; n < geometry_.nodes_at[lvl]; ++n)
        ASSERT_EQ(eager_tree_.read_node(lvl, n), cached_tree_.read_node(lvl, n))
            << when << ": level " << lvl << " node " << n;
  }

  BonsaiGeometry geometry_;
  CwMacKey key_;
  BonsaiTree eager_tree_;
  BonsaiTree cached_tree_;
  MetricsCell metrics_;
  VerifiedTreeCache cache_;
  std::vector<std::uint8_t> leaves_;
};

TEST_F(TreeCacheTwin, FuzzEquivalenceAndFlushedTreeBitIdentical) {
  Xoshiro256 rng(0xcafe);
  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t i = rng.next_below(kLines);
    if (rng.chance(0.5)) {
      set_line(i, rng);
      update_both(i);
    } else {
      const bool eager_ok = eager_tree_.verify_leaf(i, line(i));
      const bool cached_ok = cache_.verify(i, line(i));
      ASSERT_TRUE(eager_ok) << "op " << op;
      ASSERT_EQ(eager_ok, cached_ok) << "op " << op << " line " << i;
    }
    if (op % 1500 == 1499) {
      cache_.flush();
      expect_trees_identical("mid-fuzz flush");
    }
  }
  cache_.flush();
  expect_trees_identical("final flush");
  EXPECT_GT(metrics_.value(MetricId::kTreeCacheHits), 0u);
}

TEST_F(TreeCacheTwin, StaleContentRejectedColdAndWarm) {
  Xoshiro256 rng(0x51a1e);
  set_line(7, rng);
  update_both(7);
  std::array<std::uint8_t, BonsaiTree::kLineBytes> stale;
  std::memcpy(stale.data(), line(7).data(), stale.size());
  set_line(7, rng);
  update_both(7);
  const BonsaiTree::LineView stale_view(stale.data(), stale.size());
  // Warm: level-0 residency, so rejection is the 64-byte compare.
  EXPECT_FALSE(cache_.verify(7, stale_view));
  // Cold: full walk against backing.
  cache_.flush();
  EXPECT_FALSE(cache_.verify(7, stale_view));
  EXPECT_FALSE(eager_tree_.verify_leaf(7, stale_view));
  // The true bytes still verify either way.
  EXPECT_TRUE(cache_.verify(7, line(7)));
}

TEST_F(TreeCacheTwin, CorruptionUnderResidencyDetectedAfterFlush) {
  Xoshiro256 rng(0xbad);
  set_line(42, rng);
  update_both(42);
  cache_.flush();
  ASSERT_TRUE(cache_.verify(42, line(42)));  // fills the frontier

  // Corrupt the line's level-1 ancestor in backing. The resident copy
  // masks it (intentional divergence: on-chip state, attacker can't
  // reach it), but detection must resume the moment residency ends.
  cached_tree_.corrupt_node(1, BonsaiGeometry::parent_of(42), 13);
  EXPECT_TRUE(cache_.verify(42, line(42))) << "resident frontier not used";
  cache_.flush();  // entries are clean: flush drops them, no write-back
  EXPECT_FALSE(cache_.verify(42, line(42)));
  EXPECT_FALSE(cache_.verify(42, line(42))) << "failed path must not fill";
}

TEST_F(TreeCacheTwin, CorruptedCounterLineCaughtByResidentCompare) {
  Xoshiro256 rng(0xfee);
  set_line(3, rng);
  update_both(3);
  ASSERT_TRUE(cache_.verify(3, line(3)));
  // Attacker flips a bit in the (off-chip) counter line after it became
  // resident: the next verified read hands us the tampered bytes, and
  // the level-0 compare — not a MAC — rejects them.
  std::array<std::uint8_t, BonsaiTree::kLineBytes> tampered;
  std::memcpy(tampered.data(), line(3).data(), tampered.size());
  tampered[5] ^= 0x10;
  EXPECT_FALSE(cache_.verify(
      3, BonsaiTree::LineView(tampered.data(), tampered.size())));
}

TEST_F(TreeCacheTwin, CorruptionUnderResidencyDetectedAfterEviction) {
  // A deliberately tiny cache (1 KB: 16 entries in two 8-way sets) so
  // ordinary traffic recycles every slot: corruption under residency must
  // be detected once capacity pressure evicts the entry — clean evictions
  // never write the on-chip copy back over the corrupted backing bytes.
  VerifiedTreeCache tiny(cached_tree_, TreeCacheConfig{1});
  Xoshiro256 rng(0xe71c);
  set_line(100, rng);
  eager_tree_.update_leaf(100, line(100));
  cached_tree_.update_leaf(100, line(100));
  ASSERT_TRUE(tiny.verify(100, line(100)));
  cached_tree_.corrupt_node(1, BonsaiGeometry::parent_of(100), 7);
  ASSERT_TRUE(tiny.verify(100, line(100)));  // masked while resident
  // 512 distinct lines spread over the tree: each level-2 node is walked
  // four times, so about 128 of them pass admission on their second miss
  // and evict through 16 slots, recycling (0,100) and (1,12).
  for (std::uint64_t i = 0; i < kLines; i += 16)
    ASSERT_TRUE(tiny.verify(i, line(i)));
  EXPECT_FALSE(tiny.verify(100, line(100)));
}

TEST_F(TreeCacheTwin, WriteBackCoalescesAncestorMacWork) {
  Xoshiro256 rng(0xc0a1);
  // 1000 updates to the same line: eager would recompute every ancestor
  // MAC 1000 times; the write-back buffer defers it all to one flush.
  for (int i = 0; i < 1000; ++i) {
    set_line(9, rng);
    update_both(9);
  }
  const std::uint64_t before = metrics_.value(MetricId::kTreeCacheWritebacks);
  cache_.flush();
  const std::uint64_t writebacks =
      metrics_.value(MetricId::kTreeCacheWritebacks) - before;
  EXPECT_LE(writebacks, geometry_.total_levels());
  EXPECT_GE(writebacks, 1u);
  expect_trees_identical("after coalesced flush");
}

TEST_F(TreeCacheTwin, DisabledCacheDelegatesEagerly) {
  VerifiedTreeCache off(cached_tree_, TreeCacheConfig{0});
  EXPECT_FALSE(off.enabled());
  Xoshiro256 rng(0x0ff);
  set_line(5, rng);
  eager_tree_.update_leaf(5, line(5));
  off.update(5, line(5));
  EXPECT_TRUE(off.verify(5, line(5)));
  EXPECT_EQ(off.occupied(), 0u);
  expect_trees_identical("disabled cache");
  off.flush();  // no-op, must not crash
}

/// ------------------------------------------------------------------
/// Admission: a full cache takes a verified node only on evidence of
/// re-use (a second miss within the ghost window), so a uniform stream of
/// first-touch lines cannot wash out the frontier.
/// ------------------------------------------------------------------

class TreeCacheAdmission : public TreeCacheTwin {
 protected:
  /// Verify lines [0, 1024) — every set fills through its free ways.
  /// They all sit under level-2 nodes 0..15; lines from 1024 on share no
  /// path node with them.
  void fill_to_capacity() {
    for (std::uint64_t i = 0; i < 1024; ++i)
      ASSERT_TRUE(cache_.verify(i, line(i)));
    ASSERT_EQ(cache_.occupied(), 128u);  // 8 KB of 64-byte entries
  }
  bool resident(std::uint64_t i) const {
    bool level0 = false;
    EXPECT_TRUE(cache_.probe(i, line(i), level0));
    return level0;
  }
  std::uint64_t metric(MetricId id) const { return metrics_.value(id); }
};

TEST_F(TreeCacheAdmission, FullCacheDeclinesFirstTouchLinesAndKeepsHotLine) {
  fill_to_capacity();
  const std::uint64_t hot = 1000;
  for (int tries = 0; tries < 4 && !resident(hot); ++tries)
    ASSERT_TRUE(cache_.verify(hot, line(hot)));
  ASSERT_TRUE(resident(hot)) << "a re-missed line must be admitted";

  // One first-touch line under each of level-2 nodes 64..127: its leaf,
  // level-1 and level-2 nodes all miss for the first time, so each walk
  // declines all three and installs nothing.
  const std::uint64_t fills = metric(MetricId::kTreeCacheFills);
  const std::uint64_t declines = metric(MetricId::kTreeCacheAdmitDeclines);
  for (std::uint64_t k = 0; k < 64; ++k) {
    const std::uint64_t cold = 4096 + 64 * k;
    ASSERT_TRUE(cache_.verify(cold, line(cold)));
    ASSERT_TRUE(cache_.verify(hot, line(hot)));
    ASSERT_TRUE(resident(hot)) << "stream evicted the hot line at " << k;
  }
  EXPECT_EQ(metric(MetricId::kTreeCacheFills), fills);
  EXPECT_EQ(metric(MetricId::kTreeCacheAdmitDeclines), declines + 64 * 3);
  EXPECT_EQ(cache_.occupied(), 128u);
}

TEST_F(TreeCacheAdmission, NodeMissedTwiceInGhostWindowIsAdmitted) {
  fill_to_capacity();
  const std::uint64_t fresh = 5000;  // level-1 node 625, level-2 node 78
  const std::uint64_t fills = metric(MetricId::kTreeCacheFills);
  ASSERT_TRUE(cache_.verify(fresh, line(fresh)));  // first miss: declined
  EXPECT_FALSE(resident(fresh));
  EXPECT_EQ(metric(MetricId::kTreeCacheFills), fills);

  ASSERT_TRUE(cache_.verify(fresh, line(fresh)));  // second miss: admitted
  EXPECT_EQ(metric(MetricId::kTreeCacheFills), fills + 3)
      << "the leaf and both interior path nodes";
  EXPECT_TRUE(resident(fresh)) << "answered by the level-0 copy: zero MACs";
  const std::uint64_t hits = metric(MetricId::kTreeCacheHits);
  ASSERT_TRUE(cache_.verify(fresh, line(fresh)));
  EXPECT_EQ(metric(MetricId::kTreeCacheHits), hits + 1);
  EXPECT_EQ(cache_.occupied(), 128u);
}

TEST_F(TreeCacheAdmission, HotUniformFuzzWithStaleLinesMatchesEager) {
  // 70% of ops on 24 hot lines, 30% uniform; updates, verifies of the
  // true bytes, and verifies of each line's previous (stale) bytes — a
  // replay both trees must reject. Every verdict matches the eager walk.
  Xoshiro256 rng(0xad317);
  std::vector<std::vector<std::uint8_t>> previous(kLines);
  std::uint64_t stale_checks = 0;
  for (int op = 0; op < 12000; ++op) {
    const std::uint64_t i =
        rng.chance(0.7) ? 37 * rng.next_below(24) : rng.next_below(kLines);
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 3) {
      previous[i].assign(line(i).begin(), line(i).end());
      set_line(i, rng);
      update_both(i);
    } else if (kind < 5 && !previous[i].empty()) {
      const BonsaiTree::LineView stale(previous[i].data(),
                                       BonsaiTree::kLineBytes);
      const bool eager_ok = eager_tree_.verify_leaf(i, stale);
      ASSERT_FALSE(eager_ok) << "op " << op << " line " << i;
      ASSERT_EQ(cache_.verify(i, stale), eager_ok)
          << "op " << op << " line " << i;
      ++stale_checks;
    } else {
      const bool eager_ok = eager_tree_.verify_leaf(i, line(i));
      ASSERT_TRUE(eager_ok) << "op " << op;
      ASSERT_EQ(cache_.verify(i, line(i)), eager_ok)
          << "op " << op << " line " << i;
    }
    if (op % 3000 == 2999) {
      cache_.flush();
      expect_trees_identical("admission fuzz flush");
    }
  }
  cache_.flush();
  expect_trees_identical("admission fuzz final flush");
  EXPECT_GT(stale_checks, 500u);
  EXPECT_GT(metric(MetricId::kTreeCacheAdmitDeclines), 0u);
  EXPECT_GT(metric(MetricId::kTreeCacheHits), 0u);
}

/// ------------------------------------------------------------------
/// Engine-level: eager vs cached SecureMemory must be indistinguishable
/// through every public surface — reads, save images, tamper detection.
/// ------------------------------------------------------------------

SecureMemoryConfig engine_config(unsigned tree_cache_kb) {
  SecureMemoryConfig config;
  config.size_bytes = 4 * 1024 * 1024;  // 1024 counter lines, 2-level walk
  config.tree_cache_kb = tree_cache_kb;
  return config;
}

TEST(TreeCacheEngine, SaveImagesBitIdenticalUnderFuzz) {
  SecureMemory eager(engine_config(0));
  SecureMemory cached(engine_config(8));
  Xoshiro256 rng(0x5a4e);
  for (int round = 0; round < 4; ++round) {
    for (int op = 0; op < 800; ++op) {
      const std::uint64_t b = rng.next_below(eager.num_blocks());
      if (rng.chance(0.6)) {
        DataBlock block{};
        for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(eager.write_block(b, block), Status::kOk);
        EXPECT_EQ(cached.write_block(b, block), Status::kOk);
      } else {
        const auto e = eager.read_block(b);
        const auto c = cached.read_block(b);
        ASSERT_EQ(e.status, c.status);
        ASSERT_EQ(e.data, c.data);
      }
    }
    // save() is a flush barrier: the cached engine's image must come out
    // byte-for-byte identical to the eager one, every round.
    std::ostringstream eager_img, cached_img;
    EXPECT_EQ(eager.save(eager_img), Status::kOk);
    EXPECT_EQ(cached.save(cached_img), Status::kOk);
    ASSERT_EQ(eager_img.str(), cached_img.str()) << "round " << round;
  }
  EXPECT_GT(cached.stats().tree_cache_hits, 0u);
  EXPECT_EQ(eager.stats().tree_cache_hits, 0u);
}

TEST(TreeCacheEngine, ScrubRotateRestoreStayEquivalent) {
  SecureMemory eager(engine_config(0));
  SecureMemory cached(engine_config(8));
  Xoshiro256 rng(0x707a7e);
  for (int op = 0; op < 400; ++op) {
    DataBlock block{};
    for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t b = rng.next_below(eager.num_blocks());
    EXPECT_EQ(eager.write_block(b, block), Status::kOk);
    EXPECT_EQ(cached.write_block(b, block), Status::kOk);
  }
  // scrub_all flushes first so it sweeps the true off-chip state.
  EXPECT_EQ(eager.scrub_all().scanned, cached.scrub_all().scanned);
  // Key rotation re-encrypts everything; dirty state must not survive
  // under the old key.
  ASSERT_TRUE(eager.rotate_master_key(0xd00d));
  ASSERT_TRUE(cached.rotate_master_key(0xd00d));
  std::ostringstream eager_img, cached_img;
  EXPECT_EQ(eager.save(eager_img), Status::kOk);
  EXPECT_EQ(cached.save(cached_img), Status::kOk);
  EXPECT_EQ(eager_img.str(), cached_img.str());
  // Round-trip the cached engine through restore (which invalidates the
  // cache: the rebuilt tree shares no state with the old one).
  std::istringstream in(cached_img.str());
  SecureMemoryConfig revived_config = engine_config(8);
  revived_config.master_key = 0xd00d;  // restore derives keys from config
  SecureMemory revived(revived_config);
  ASSERT_TRUE(revived.restore(in));
  for (std::uint64_t b = 0; b < revived.num_blocks(); b += 97) {
    const auto want = eager.read_block(b);
    const auto got = revived.read_block(b);
    ASSERT_EQ(got.status, want.status);
    ASSERT_EQ(got.data, want.data);
  }

  // Delta round: the same writes since the full save must seal into
  // byte-identical deltas from both tree modes, and each mode must apply
  // the other's delta on a replica of the full image.
  for (int op = 0; op < 200; ++op) {
    DataBlock block{};
    for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t b = rng.next_below(eager.num_blocks());
    EXPECT_EQ(eager.write_block(b, block), Status::kOk);
    EXPECT_EQ(cached.write_block(b, block), Status::kOk);
    ASSERT_EQ(eager.read_block(b).data, cached.read_block(b).data);
  }
  std::ostringstream eager_delta, cached_delta;
  EXPECT_EQ(eager.save_delta(eager_delta), Status::kOk);
  EXPECT_EQ(cached.save_delta(cached_delta), Status::kOk);
  ASSERT_EQ(eager_delta.str().compare(0, 8, "SECMDLT1"), 0);
  ASSERT_EQ(eager_delta.str(), cached_delta.str());

  SecureMemoryConfig eager_revived_config = engine_config(0);
  eager_revived_config.master_key = 0xd00d;
  SecureMemory eager_revived(eager_revived_config);
  std::istringstream eager_full(eager_img.str());
  ASSERT_TRUE(eager_revived.restore(eager_full));
  std::istringstream from_cached(cached_delta.str());
  ASSERT_TRUE(eager_revived.restore_delta(from_cached));
  std::istringstream from_eager(eager_delta.str());
  ASSERT_TRUE(revived.restore_delta(from_eager));

  std::ostringstream want_img, eager_revived_img, revived_img;
  EXPECT_EQ(eager.save(want_img), Status::kOk);
  EXPECT_EQ(eager_revived.save(eager_revived_img), Status::kOk);
  EXPECT_EQ(revived.save(revived_img), Status::kOk);
  EXPECT_EQ(eager_revived_img.str(), want_img.str());
  EXPECT_EQ(revived_img.str(), want_img.str());
}

TEST(TreeCacheEngine, UniformReadsIntoFullCacheCountAdmitDeclines) {
  // 1024 counter lines against a 128-entry frontier: uniform reads fill
  // it within a few hundred ops, after which most first-touch path nodes
  // are declined, and the engine publishes the count.
  SecureMemory mem(engine_config(8));
  Xoshiro256 rng(0xdec1);
  for (int op = 0; op < 3000; ++op)
    ASSERT_EQ(mem.read_block(rng.next_below(mem.num_blocks())).status,
              ReadStatus::kOk);
  StatRegistry registry;
  mem.publish_metrics(registry);
  const std::uint64_t declines =
      registry.counter_value("engine.tree_cache.admit_declines");
  EXPECT_GT(declines, 1000u);
  EXPECT_LT(registry.counter_value("engine.tree_cache.fills"), declines);
}

TEST(TreeCacheEngine, TamperDetectionMatchesEagerThroughFlushBarrier) {
  SecureMemory eager(engine_config(0));
  SecureMemory cached(engine_config(8));
  for (std::uint64_t b = 0; b < 64; ++b) {
    DataBlock block{};
    block[0] = static_cast<std::uint8_t>(b);
    EXPECT_EQ(eager.write_block(b, block), Status::kOk);
    EXPECT_EQ(cached.write_block(b, block), Status::kOk);
    // Warm the cached engine's frontier so the tamper lands while the
    // path is resident — the untrusted() accessor is the flush barrier
    // that ends residency before the attacker touches anything.
    (void)cached.read_block(b);
  }
  const std::uint64_t line = cached.counters().storage_line_of(17);
  eager.untrusted().flip_counter_bit(line, 9);
  cached.untrusted().flip_counter_bit(line, 9);
  EXPECT_EQ(eager.read_block(17).status, cached.read_block(17).status);
  EXPECT_EQ(cached.read_block(17).status, ReadStatus::kCounterTampered);

  eager.untrusted().tree().corrupt_node(1, 0, 21);
  cached.untrusted().tree().corrupt_node(1, 0, 21);
  EXPECT_EQ(eager.read_block(0).status, cached.read_block(0).status);
  EXPECT_EQ(cached.read_block(0).status, ReadStatus::kCounterTampered);
}

TEST(TreeCacheEngine, ShardedStressWithPerShardCaches) {
  SecureMemoryConfig config = engine_config(8);
  config.size_bytes = 1024 * 1024;
  ShardedSecureMemory mem(config, 4);
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 64;  // disjoint block ranges
  std::vector<std::thread> workers;
  std::atomic<int> bad{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&mem, &bad, t] {
      Xoshiro256 rng(0x7157 + t);
      const std::uint64_t base = t * kPerThread;
      for (int op = 0; op < 3000; ++op) {
        if (rng.chance(0.4)) {
          DataBlock block{};
          const std::uint64_t b = base + rng.next_below(kPerThread);
          block[0] = static_cast<std::uint8_t>(b);
          block[1] = static_cast<std::uint8_t>(t);
          EXPECT_EQ(mem.write_block(b, block), Status::kOk);
        } else {
          // Read anywhere, including other threads' hot blocks.
          const std::uint64_t b = rng.next_below(kThreads * kPerThread);
          if (mem.read_block(b).status != ReadStatus::kOk) ++bad;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(mem.stats().tree_cache_hits, 0u);
  // Quiescent readback: last writer's value, verified, for every block.
  for (std::uint64_t b = 0; b < kThreads * kPerThread; ++b) {
    const auto result = mem.read_block(b);
    ASSERT_EQ(result.status, ReadStatus::kOk);
    if (result.data != DataBlock{}) {
      EXPECT_EQ(result.data[0], static_cast<std::uint8_t>(b));
    }
  }
}

}  // namespace
}  // namespace secmem
