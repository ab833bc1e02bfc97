#include "cache/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "reference_cache.h"

namespace secmem {
namespace {

CacheConfig small_cache() { return CacheConfig{1024, 2, 64}; }  // 8 sets

TEST(Cache, MissThenHit) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.lookup(0x1000));
  cache.fill(0x1000);
  EXPECT_TRUE(cache.lookup(0x1000));
}

TEST(Cache, LineGranularity) {
  SetAssocCache cache(small_cache());
  cache.fill(0x1000);
  EXPECT_TRUE(cache.lookup(0x103F));   // same 64B line
  EXPECT_FALSE(cache.lookup(0x1040));  // next line
}

TEST(Cache, LruEviction) {
  SetAssocCache cache(small_cache());
  // Three lines mapping to the same set (set stride = 8 sets * 64B = 512B).
  const std::uint64_t a = 0x0000, b = 0x0200, c = 0x0400;
  cache.fill(a);
  cache.fill(b);
  cache.lookup(a);  // a is now MRU
  const auto victim = cache.fill(c);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, b);  // LRU way evicted
  EXPECT_TRUE(cache.contains(a));
  EXPECT_FALSE(cache.contains(b));
}

TEST(Cache, DirtyEvictionReported) {
  SetAssocCache cache(small_cache());
  cache.fill(0x0000, /*dirty=*/true);
  cache.fill(0x0200);
  const auto victim = cache.fill(0x0400);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, 0x0000u);
  EXPECT_TRUE(victim->dirty);
}

TEST(Cache, MarkDirtyRequiresPresence) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.touch(0x1000, /*dirty=*/true));
  cache.fill(0x1000);
  EXPECT_TRUE(cache.touch(0x1000, /*dirty=*/true));
  const auto removed = cache.invalidate(0x1000);
  ASSERT_TRUE(removed.has_value());
  EXPECT_TRUE(removed->dirty);
}

TEST(Cache, InvalidateAbsentLine) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.invalidate(0x5000).has_value());
}

TEST(Cache, ContainsDoesNotTouchLru) {
  SetAssocCache cache(small_cache());
  cache.fill(0x0000);
  cache.fill(0x0200);
  // contains() must not promote a; otherwise b would be evicted next.
  cache.contains(0x0000);
  const auto victim = cache.fill(0x0400);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, 0x0000u);
}

TEST(Cache, FlushReturnsOnlyDirtyAndEmptiesCache) {
  SetAssocCache cache(small_cache());
  cache.fill(0x0000, true);   // set 0
  cache.fill(0x0040, false);  // set 1
  cache.fill(0x0080, true);   // set 2
  const auto dirty = cache.flush();
  EXPECT_EQ(dirty.size(), 2u);
  EXPECT_EQ(cache.occupied_lines(), 0u);
}

TEST(Cache, CapacityRespected) {
  SetAssocCache cache(small_cache());  // 16 lines total
  for (std::uint64_t i = 0; i < 100; ++i) cache.fill(i * 64);
  EXPECT_EQ(cache.occupied_lines(), 16u);
}

TEST(Cache, GeometryAccessors) {
  SetAssocCache cache(CacheConfig{32 * 1024, 8, 64});
  EXPECT_EQ(cache.num_sets(), 64u);
  EXPECT_EQ(cache.ways(), 8u);
  EXPECT_EQ(cache.line_bytes(), 64u);
  EXPECT_EQ(cache.line_address(0x1234), 0x1200u);
}

TEST(Cache, DistinctTagsSameSet) {
  // Two addresses with the same set index but different tags must not
  // alias (regression guard for tag extraction).
  SetAssocCache cache(small_cache());
  cache.fill(0x0000);
  EXPECT_FALSE(cache.lookup(0x0200));
}

// Differential check against ReferenceCache: a random stream of lookups
// (filling on a miss, as the hierarchy does), touches, invalidations,
// probes and flushes must see identical hits, victims and dirty bits.
// Half the stream conflicts in a few sets so that LRU order decides the
// victims; the other half roams twice the capacity.
using MaybeEviction = std::optional<std::pair<std::uint64_t, bool>>;
MaybeEviction as_pair(const std::optional<Eviction>& e) {
  if (!e) return std::nullopt;
  return std::make_pair(e->line_addr, e->dirty);
}
std::vector<std::pair<std::uint64_t, bool>> as_pairs(
    const std::vector<Eviction>& evictions) {
  std::vector<std::pair<std::uint64_t, bool>> out;
  for (const Eviction& e : evictions) out.emplace_back(e.line_addr, e.dirty);
  return out;
}

void expect_matches_reference(const CacheConfig& config, std::uint64_t seed,
                              int ops) {
  SCOPED_TRACE(testing::Message() << config.size_bytes << " B, "
                                  << config.ways << " ways, seed " << seed);
  SetAssocCache cache(config);
  ReferenceCache ref(config);
  Xoshiro256 rng(seed);
  const std::uint64_t sets =
      config.size_bytes / (config.line_bytes * config.ways);
  const std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 8);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t line =
        rng.chance(0.5)
            ? rng.next_below(hot_sets) + sets * rng.next_below(3 * config.ways)
            : rng.next_below(2 * sets * config.ways);
    const std::uint64_t addr =
        line * config.line_bytes + rng.next_below(config.line_bytes);
    const bool dirty = rng.chance(0.3);
    const std::uint64_t op = rng.next_below(1000);
    if (op < 600) {
      const bool hit = cache.lookup(addr);
      ASSERT_EQ(hit, ref.lookup(addr)) << "op " << i;
      if (!hit) {
        ASSERT_EQ(as_pair(cache.fill(addr, dirty)),
                  as_pair(ref.fill(addr, dirty)))
            << "op " << i;
      }
    } else if (op < 850) {
      ASSERT_EQ(cache.touch(addr, dirty), ref.touch(addr, dirty))
          << "op " << i;
    } else if (op < 950) {
      ASSERT_EQ(as_pair(cache.invalidate(addr)), as_pair(ref.invalidate(addr)))
          << "op " << i;
    } else if (op < 999) {
      ASSERT_EQ(cache.contains(addr), ref.contains(addr)) << "op " << i;
    } else {
      ASSERT_EQ(as_pairs(cache.flush()), as_pairs(ref.flush())) << "op " << i;
    }
  }
  EXPECT_EQ(cache.occupied_lines(), ref.occupied_lines());
  EXPECT_EQ(as_pairs(cache.flush()), as_pairs(ref.flush()));
}

TEST(CacheDifferential, PowerOfTwoGeometriesMatchReference) {
  const CacheConfig geometries[] = {
      {1024, 2, 64},              // 8 sets
      {32 * 1024, 8, 64},         // L1 / metadata cache
      {256 * 1024, 8, 64},        // L2
      {64 * 1024, 16, 128},       // 32 sets of 128 B lines
      {4 * 1024 * 1024, 16, 64},  // 4096 sets
  };
  std::uint64_t seed = 1;
  for (const CacheConfig& config : geometries)
    expect_matches_reference(config, seed++, 60000);
}

TEST(CacheDifferential, NonPowerOfTwoGeometriesMatchReference) {
  const CacheConfig geometries[] = {
      {384, 2, 64},                // 3 sets
      {1280, 4, 64},               // 5 sets
      {6144, 8, 64},               // 12 sets
      {48 * 1024, 8, 128},         // 48 sets of 128 B lines
      {10 * 1024 * 1024, 16, 64},  // the paper's L3: 10240 sets
  };
  std::uint64_t seed = 101;
  for (const CacheConfig& config : geometries)
    expect_matches_reference(config, seed++, 60000);
}

// The 10 MB, 16-way L3 has 10240 sets. Masking with sets - 1 made
// distinct lines share a set and a tag, and rebuilt victims at the wrong
// address; modulo indexing keeps every line distinct.
TEST(Cache, NonPowerOfTwoSetsNeitherAliasNorMoveLines) {
  SetAssocCache cache(CacheConfig{10 * 1024 * 1024, 16, 64});
  ASSERT_EQ(cache.num_sets(), 10240u);

  cache.fill(0);
  EXPECT_FALSE(cache.contains(2048 * 64)) << "line 2048 aliases line 0";
  cache.fill(921152, /*dirty=*/true);
  const auto flushed = cache.flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].line_addr, 921152u);

  // A conflict-heavy stream: nothing reads as present unless it was
  // filled, and every victim or flushed line is one that was filled.
  std::unordered_set<std::uint64_t> resident;
  Xoshiro256 rng(7);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t line =
        rng.chance(0.5) ? rng.next_below(16 * 1024)
                        : rng.next_below(64) + 2048 * rng.next_below(400);
    const std::uint64_t addr = line * 64;
    const bool present = resident.count(addr) != 0;
    ASSERT_EQ(cache.lookup(addr), present) << "line " << line;
    if (present) continue;
    if (const auto victim = cache.fill(addr, rng.chance(0.5))) {
      ASSERT_EQ(resident.erase(victim->line_addr), 1u)
          << "evicted " << victim->line_addr << ", never filled";
    }
    resident.insert(addr);
  }
  EXPECT_EQ(cache.occupied_lines(), resident.size());
  for (const Eviction& ev : cache.flush())
    EXPECT_EQ(resident.count(ev.line_addr), 1u) << ev.line_addr;
}

TEST(Cache, RejectsBadGeometry) {
  const CacheConfig bad[] = {
      {1536, 2, 48},  // line size not a power of two
      {0, 8, 64},     // zero sets
      {512, 16, 64},  // less than one set
      {1000, 2, 64},  // not a whole number of sets
      {1024, 0, 64},  // zero ways
  };
  for (const CacheConfig& config : bad)
    EXPECT_THROW(SetAssocCache{config}, std::invalid_argument)
        << config.size_bytes << " B, " << config.ways << " ways, "
        << config.line_bytes << " B lines";
}

}  // namespace
}  // namespace secmem
