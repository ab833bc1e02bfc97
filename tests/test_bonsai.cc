#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"
#include "tree/bonsai_geometry.h"
#include "tree/bonsai_tree.h"

namespace secmem {
namespace {

// ---------------------------------------------------------- geometry

TEST(BonsaiGeometry, PaperBaselineHas5OffchipLevels) {
  // 512MB protected, monolithic counters: 8M blocks / 8 per line = 1M
  // counter lines; 3KB on-chip roots -> 5 off-chip levels (paper Table 1).
  const std::uint64_t counter_lines = (512ULL << 20) / 64 / 8;
  BonsaiGeometry geometry(counter_lines, 3 * 1024);
  EXPECT_EQ(geometry.offchip_levels(), 5u);
}

TEST(BonsaiGeometry, PaperDeltaTreeHas4OffchipLevels) {
  // Delta counters: 64 blocks per line -> 128K lines -> 4 levels
  // (paper §5.2: "depth of the tree is reduced from 5 to 4").
  const std::uint64_t counter_lines = (512ULL << 20) / 64 / 64;
  BonsaiGeometry geometry(counter_lines, 3 * 1024);
  EXPECT_EQ(geometry.offchip_levels(), 4u);
}

TEST(BonsaiGeometry, LevelsShrinkByArity) {
  BonsaiGeometry geometry(4096, 64);
  for (std::size_t i = 1; i < geometry.nodes_at.size(); ++i) {
    EXPECT_EQ(geometry.nodes_at[i],
              (geometry.nodes_at[i - 1] + 7) / 8);
  }
}

TEST(BonsaiGeometry, TopLevelFitsOnChip) {
  for (std::uint64_t lines : {10ULL, 1000ULL, 1000000ULL}) {
    BonsaiGeometry geometry(lines, 3 * 1024);
    EXPECT_LE(geometry.nodes_at.back() * 64, 3 * 1024u);
  }
}

TEST(BonsaiGeometry, SingleLineDegenerateTree) {
  // Even a one-line counter region gets an on-chip root above it: the
  // counter line itself is off-chip and must be verifiable.
  BonsaiGeometry geometry(1, 3 * 1024);
  EXPECT_EQ(geometry.offchip_levels(), 1u);
  EXPECT_EQ(geometry.total_levels(), 2u);
}

class BonsaiGeometrySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BonsaiGeometrySweep, StructuralInvariants) {
  const std::uint64_t lines = GetParam();
  const BonsaiGeometry geometry(lines, 3 * 1024);
  // Leaves first, root level last, at least two levels.
  ASSERT_GE(geometry.total_levels(), 2u);
  EXPECT_EQ(geometry.nodes_at.front(), lines);
  // Every level shrinks by exactly ceil(/8).
  for (std::size_t i = 1; i < geometry.nodes_at.size(); ++i)
    EXPECT_EQ(geometry.nodes_at[i], (geometry.nodes_at[i - 1] + 7) / 8) << i;
  // Root level fits the SRAM budget; the level below it does not.
  EXPECT_LE(geometry.nodes_at.back() * 64, 3 * 1024u);
  if (geometry.total_levels() > 2) {
    EXPECT_GT(geometry.nodes_at[geometry.total_levels() - 2] * 64,
              3 * 1024u);
  }
  // Every leaf's ancestor chain lands inside each level (ending at some
  // node of the on-chip root level).
  for (std::uint64_t leaf : {std::uint64_t{0}, lines / 2, lines - 1}) {
    std::uint64_t node = leaf;
    for (std::size_t lvl = 1; lvl < geometry.nodes_at.size(); ++lvl) {
      node = BonsaiGeometry::parent_of(node);
      EXPECT_LT(node, geometry.nodes_at[lvl]) << "leaf " << leaf;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BonsaiGeometrySweep,
                         ::testing::Values(1, 7, 8, 9, 63, 64, 65, 512,
                                           4096, 100000, 1 << 20));

TEST(BonsaiGeometry, ParentChildIndexing) {
  EXPECT_EQ(BonsaiGeometry::parent_of(0), 0u);
  EXPECT_EQ(BonsaiGeometry::parent_of(7), 0u);
  EXPECT_EQ(BonsaiGeometry::parent_of(8), 1u);
  EXPECT_EQ(BonsaiGeometry::slot_in_parent(0), 0u);
  EXPECT_EQ(BonsaiGeometry::slot_in_parent(13), 5u);
}

TEST(BonsaiGeometry, OffchipTreeBytesExcludesLeavesAndRoots) {
  BonsaiGeometry geometry(64 * 64, 3 * 1024);  // 4096 lines
  // levels: 4096, 512, 64, 8 (8*64=512B <= 3KB, on-chip).
  ASSERT_EQ(geometry.nodes_at.size(), 4u);
  EXPECT_EQ(geometry.offchip_tree_bytes(), (512 + 64) * 64u);
}

// -------------------------------------------------------------- tree

CwMacKey tree_key() {
  CwMacKey key{};
  key.hash_key = 0xABCDEF0123456789ULL;
  for (int i = 0; i < 16; ++i) key.pad_key[i] = static_cast<std::uint8_t>(i);
  return key;
}

class BonsaiTreeTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kLines = 512;  // levels: 512, 64, 8
  BonsaiGeometry geometry{kLines, 1024};        // 8 nodes = 512B on-chip
  BonsaiTree tree{geometry, tree_key()};

  std::array<std::uint8_t, 64> line_content(std::uint8_t seed) {
    std::array<std::uint8_t, 64> content{};
    for (std::size_t i = 0; i < 64; ++i)
      content[i] = static_cast<std::uint8_t>(seed + i);
    return content;
  }
};

TEST_F(BonsaiTreeTest, FreshTreeVerifiesZeroLines) {
  const std::array<std::uint8_t, 64> zeros{};
  for (std::uint64_t line = 0; line < kLines; line += 37)
    EXPECT_TRUE(tree.verify_leaf(line, zeros));
}

TEST_F(BonsaiTreeTest, UpdateThenVerify) {
  const auto content = line_content(7);
  tree.update_leaf(42, content);
  EXPECT_TRUE(tree.verify_leaf(42, content));
}

TEST_F(BonsaiTreeTest, StaleContentRejected) {
  const auto v1 = line_content(1);
  const auto v2 = line_content(2);
  tree.update_leaf(10, v1);
  tree.update_leaf(10, v2);
  EXPECT_TRUE(tree.verify_leaf(10, v2));
  EXPECT_FALSE(tree.verify_leaf(10, v1)) << "replayed stale counter line!";
}

TEST_F(BonsaiTreeTest, EveryLeafBitMatters) {
  auto content = line_content(3);
  tree.update_leaf(100, content);
  for (unsigned bit = 0; bit < 512; bit += 41) {
    content[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(tree.verify_leaf(100, content)) << "bit " << bit;
    content[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_TRUE(tree.verify_leaf(100, content));
}

TEST_F(BonsaiTreeTest, UpdatesAreIndependentAcrossLeaves) {
  const auto a = line_content(4);
  const auto b = line_content(5);
  tree.update_leaf(0, a);
  tree.update_leaf(1, b);  // same parent node as leaf 0
  EXPECT_TRUE(tree.verify_leaf(0, a));
  EXPECT_TRUE(tree.verify_leaf(1, b));
}

TEST_F(BonsaiTreeTest, InteriorNodeCorruptionDetected) {
  const auto content = line_content(6);
  tree.update_leaf(8, content);
  tree.corrupt_node(1, BonsaiGeometry::parent_of(8), 3);
  EXPECT_FALSE(tree.verify_leaf(8, content));
}

TEST_F(BonsaiTreeTest, InteriorReplayDetected) {
  // Attacker snapshots an interior node + leaf, lets the system progress,
  // then restores both. The on-chip root level catches the rollback.
  const auto v1 = line_content(8);
  tree.update_leaf(20, v1);
  const auto old_node = tree.read_node(1, BonsaiGeometry::parent_of(20));

  const auto v2 = line_content(9);
  tree.update_leaf(20, v2);

  tree.write_node(1, BonsaiGeometry::parent_of(20), old_node);
  EXPECT_FALSE(tree.verify_leaf(20, v1))
      << "replay of (leaf, interior node) pair was accepted";
}

TEST_F(BonsaiTreeTest, CorruptionOfSiblingSubtreeHarmless) {
  const auto content = line_content(10);
  tree.update_leaf(0, content);
  // Corrupt an interior node covering distant leaves only.
  tree.corrupt_node(1, 32, 0);  // parent of leaves 256..263
  EXPECT_TRUE(tree.verify_leaf(0, content));
}

TEST_F(BonsaiTreeTest, ManyRandomUpdatesStayConsistent) {
  Xoshiro256 rng(1);
  std::vector<std::array<std::uint8_t, 64>> current(
      kLines, std::array<std::uint8_t, 64>{});
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t line = rng.next_below(kLines);
    auto content = line_content(static_cast<std::uint8_t>(rng.next()));
    tree.update_leaf(line, content);
    current[line] = content;
  }
  for (std::uint64_t line = 0; line < kLines; line += 13)
    EXPECT_TRUE(tree.verify_leaf(line, current[line])) << line;
}

/// rebuild_from_lines (the restore path's bottom-up bulk build) must leave
/// every interior node bit-identical to the per-leaf reference: a fresh
/// tree patched by one update_leaf root walk per counter line. Covers a
/// single line, a partial last node on one level, and multi-level trees
/// whose last node is partial on every level.
TEST(BonsaiTreeRebuild, BulkRebuildMatchesPerLeafUpdates) {
  Xoshiro256 rng(0xb0b5a1);
  for (const std::uint64_t lines : {1ULL, 5ULL, 8ULL, 77ULL, 1000ULL}) {
    const BonsaiGeometry geometry(lines, 64);  // one on-chip root node
    std::vector<std::uint8_t> store(lines * 64);
    for (auto& byte : store) byte = static_cast<std::uint8_t>(rng.next());

    BonsaiTree eager(geometry, tree_key());
    for (std::uint64_t line = 0; line < lines; ++line)
      eager.update_leaf(line,
                        BonsaiTree::LineView(store.data() + line * 64, 64));
    BonsaiTree bulk(geometry, tree_key(), BonsaiTree::DeferredBuild{});
    bulk.rebuild_from_lines(store);

    for (unsigned level = 1; level < geometry.total_levels(); ++level) {
      for (std::uint64_t node = 0; node < geometry.nodes_at[level]; ++node) {
        ASSERT_EQ(bulk.read_node(level, node), eager.read_node(level, node))
            << lines << " lines, level " << level << " node " << node;
      }
    }
    for (std::uint64_t line = 0; line < lines; ++line)
      EXPECT_TRUE(bulk.verify_leaf(
          line, BonsaiTree::LineView(store.data() + line * 64, 64)));
  }
}

}  // namespace
}  // namespace secmem
