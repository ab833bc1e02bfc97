#include "counters/generic_delta.h"

#include <gtest/gtest.h>

#include <map>

#include "common/bitops.h"
#include "common/rng.h"
#include "counters/delta_counter.h"

namespace secmem {
namespace {

TEST(GenericDelta, GroupGeometryFollowsWidth) {
  // g = min(floor((512-56)/w), 64); reference + deltas always fit 512 bits.
  EXPECT_EQ(GenericDeltaCounters::group_blocks_for(4), 64u);   // capped
  EXPECT_EQ(GenericDeltaCounters::group_blocks_for(6), 64u);
  EXPECT_EQ(GenericDeltaCounters::group_blocks_for(7), 64u);
  EXPECT_EQ(GenericDeltaCounters::group_blocks_for(9), 50u);
  EXPECT_EQ(GenericDeltaCounters::group_blocks_for(12), 38u);
  EXPECT_EQ(GenericDeltaCounters::group_blocks_for(16), 28u);
  for (unsigned w = 2; w <= 16; ++w) {
    const unsigned g = GenericDeltaCounters::group_blocks_for(w);
    EXPECT_LE(56 + g * w, 512u) << "width " << w;
  }
}

TEST(GenericDelta, SevenBitMatchesDeltaCountersExactly) {
  // The paper's evaluated point must be bit-for-bit the dedicated class.
  GenericDeltaCounters generic(256, 7);
  DeltaCounters fixed(256);
  Xoshiro256 rng(1);
  for (int i = 0; i < 50000; ++i) {
    const BlockIndex block = rng.next_below(256);
    const auto a = generic.on_write(block);
    const auto b = fixed.on_write(block);
    EXPECT_EQ(a.counter, b.counter) << i;
    EXPECT_EQ(a.event, b.event) << i;
  }
  EXPECT_EQ(generic.reencryptions(), fixed.reencryptions());
  EXPECT_EQ(generic.resets(), fixed.resets());
  EXPECT_EQ(generic.reencodes(), fixed.reencodes());
  std::array<std::uint8_t, 64> la{}, lb{};
  generic.serialize_line(0, la);
  fixed.serialize_line(0, lb);
  EXPECT_EQ(la, lb);
}

class GenericDeltaWidth : public ::testing::TestWithParam<unsigned> {};

TEST_P(GenericDeltaWidth, OverflowAtExactWidthBoundary) {
  const unsigned width = GetParam();
  GenericDeltaCounters scheme(
      GenericDeltaCounters::group_blocks_for(width), width);
  const std::uint64_t max = (1ULL << width) - 1;
  for (std::uint64_t i = 0; i < max; ++i) {
    EXPECT_NE(scheme.on_write(0).event, CounterEvent::kReencrypt) << i;
  }
  // Δmin = 0 (cold neighbours): the next write must re-encrypt.
  EXPECT_EQ(scheme.on_write(0).event, CounterEvent::kReencrypt);
  EXPECT_EQ(scheme.read_counter(0), max + 1);
}

TEST_P(GenericDeltaWidth, NonceFreshnessUnderRandomWrites) {
  const unsigned width = GetParam();
  GenericDeltaCounters scheme(256, width);
  Xoshiro256 rng(width);
  std::map<BlockIndex, std::uint64_t> last;
  for (int i = 0; i < 30000; ++i) {
    const BlockIndex block =
        rng.chance(0.7) ? rng.next_below(4) : rng.next_below(256);
    const auto outcome = scheme.on_write(block);
    auto it = last.find(block);
    if (it != last.end()) {
      EXPECT_GT(outcome.counter, it->second);
    }
    last[block] = outcome.counter;
    if (outcome.event == CounterEvent::kReencrypt) {
      const BlockIndex first = outcome.group * scheme.blocks_per_group();
      for (BlockIndex b = first;
           b < first + scheme.blocks_per_group() && b < 256; ++b)
        last[b] = outcome.counter;
    }
  }
}

TEST_P(GenericDeltaWidth, UniformSweepResets) {
  const unsigned width = GetParam();
  const unsigned group = GenericDeltaCounters::group_blocks_for(width);
  GenericDeltaCounters scheme(group, width);
  for (int pass = 0; pass < 50; ++pass)
    for (BlockIndex b = 0; b < group; ++b) scheme.on_write(b);
  EXPECT_EQ(scheme.reencryptions(), 0u);
  EXPECT_EQ(scheme.resets(), 50u);
}

TEST_P(GenericDeltaWidth, SerializationRoundTripsAllFields) {
  const unsigned width = GetParam();
  const unsigned group = GenericDeltaCounters::group_blocks_for(width);
  GenericDeltaCounters scheme(group, width);
  Xoshiro256 rng(99 + width);
  for (int i = 0; i < 500; ++i) scheme.on_write(rng.next_below(group));
  std::array<std::uint8_t, 64> line{};
  scheme.serialize_line(0, line);
  // Manually decode the line and compare against read_counter.
  const std::uint64_t ref = extract_field(line, 0, 56);
  for (unsigned b = 0; b < group; ++b) {
    const std::uint64_t delta =
        extract_field(line, 56 + b * width, width);
    EXPECT_EQ(ref + delta, scheme.read_counter(b)) << "slot " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, GenericDeltaWidth,
                         ::testing::Values(4u, 5u, 6u, 7u, 8u, 10u, 12u,
                                           16u));

TEST(GenericDelta, WiderDeltasReencryptLess) {
  // The §4.2 trade-off: more bits per delta -> later overflow -> fewer
  // re-encryptions, at higher storage cost. Drive identical hot streams.
  std::uint64_t previous = ~0ULL;
  for (unsigned width : {4u, 6u, 8u, 10u}) {
    GenericDeltaCounters scheme(64, width);
    Xoshiro256 rng(7);  // same stream for all widths
    for (int i = 0; i < 20000; ++i)
      scheme.on_write(rng.next_below(4));  // 4 hot blocks, Δmin pins at 0
    EXPECT_LT(scheme.reencryptions(), previous) << "width " << width;
    previous = scheme.reencryptions();
  }
}

TEST(GenericDelta, StorageCostGrowsWithWidth) {
  double previous = 0;
  for (unsigned width : {4u, 6u, 8u, 12u, 16u}) {
    GenericDeltaCounters scheme(64, width);
    EXPECT_GT(scheme.bits_per_block(), previous);
    previous = scheme.bits_per_block();
  }
}

}  // namespace
}  // namespace secmem
