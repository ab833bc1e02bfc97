// Scheme-specific behaviour: the exact overflow ladders of paper §4
// (Figure 5 a/b/c and Figure 6).
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "counters/delta_counter.h"
#include "counters/dual_length_delta.h"
#include "counters/generic_delta.h"
#include "counters/monolithic.h"
#include "counters/split_counter.h"

namespace secmem {
namespace {

// ---------------------------------------------------------------- split

TEST(SplitCounters, OverflowsAtExactly128WritesToOneBlock) {
  SplitCounters scheme(64);
  for (int i = 0; i < 127; ++i)
    EXPECT_EQ(scheme.on_write(0).event, CounterEvent::kIncrement) << i;
  const auto outcome = scheme.on_write(0);
  EXPECT_EQ(outcome.event, CounterEvent::kReencrypt);
  EXPECT_EQ(scheme.reencryptions(), 1u);
  // Full counter after re-encryption: major=1, minor=0 -> 1<<7 = 128.
  EXPECT_EQ(outcome.counter, 128u);
  EXPECT_EQ(scheme.read_counter(0), 128u);
  EXPECT_EQ(scheme.read_counter(5), 128u);  // whole group jumped
}

TEST(SplitCounters, NoEscapeHatchEvenForUniformWrites) {
  // The defining contrast with delta encoding: uniform sweeps still
  // re-encrypt every 128 passes.
  SplitCounters scheme(64);
  for (int pass = 0; pass < 128; ++pass)
    for (BlockIndex b = 0; b < 64; ++b) scheme.on_write(b);
  EXPECT_GE(scheme.reencryptions(), 1u);
}

// ---------------------------------------------------------------- delta

TEST(DeltaCounters, UniformSweepTriggersResetNotReencryption) {
  // Fig 5b: writes with spatial locality converge all deltas -> reset.
  DeltaCounters scheme(64);
  for (int pass = 0; pass < 1000; ++pass) {
    for (BlockIndex b = 0; b < 64; ++b) {
      const auto outcome = scheme.on_write(b);
      if (b == 63)
        EXPECT_EQ(outcome.event, CounterEvent::kReset) << "pass " << pass;
      else
        EXPECT_EQ(outcome.event, CounterEvent::kIncrement);
    }
  }
  EXPECT_EQ(scheme.reencryptions(), 0u);
  EXPECT_EQ(scheme.resets(), 1000u);
  EXPECT_EQ(scheme.read_counter(0), 1000u);
  EXPECT_EQ(scheme.group_reference(0), 1000u);  // deltas folded in
}

TEST(DeltaCounters, ResetOnlyWhenAllDeltasEqual) {
  DeltaCounters scheme(64);
  scheme.on_write(0);  // delta[0]=1, others 0 -> no reset possible
  EXPECT_EQ(scheme.resets(), 0u);
  for (BlockIndex b = 1; b < 64; ++b) scheme.on_write(b);
  // Now all deltas are 1 -> the last write reset them.
  EXPECT_EQ(scheme.resets(), 1u);
}

TEST(DeltaCounters, ReencodeDefersReencryption) {
  // Fig 5c: one block races ahead, but the others keep Δmin > 0.
  DeltaCounters scheme(64);
  // Bring every block to delta=10.
  for (int i = 0; i < 10; ++i)
    for (BlockIndex b = 0; b < 64; ++b) scheme.on_write(b);
  // reset fired each pass (all equal) -> deltas are 0, ref=10. Stagger:
  // give block 0 an extra write so deltas are unequal from here on.
  scheme.on_write(0);
  // Now hammer block 1 to overflow. Before overflow, push all OTHER
  // blocks forward so Δmin stays >= 1.
  for (BlockIndex b = 0; b < 64; ++b) scheme.on_write(b);  // all +1
  std::uint64_t reencodes_before = scheme.reencodes();
  // 126 increments take block 1's delta to the 7-bit ceiling; the 127th
  // write re-encodes (Δmin = 1 from the cold blocks' shared offset).
  for (int i = 0; i < 127; ++i) scheme.on_write(1);
  EXPECT_GT(scheme.reencodes(), reencodes_before);
  EXPECT_EQ(scheme.reencryptions(), 0u);
}

TEST(DeltaCounters, HotSingleBlockReencryptsLikeSplit) {
  // Δmin = 0 (cold neighbours) -> no optimization applies. The overflow
  // cadence matches split counters: every 128 writes.
  DeltaCounters scheme(64);
  for (int i = 0; i < 128; ++i) scheme.on_write(0);
  EXPECT_EQ(scheme.reencryptions(), 1u);
  EXPECT_EQ(scheme.read_counter(0), 128u);
  EXPECT_EQ(scheme.read_counter(63), 128u);  // group re-encrypted together
}

TEST(DeltaCounters, AblationTogglesWork) {
  // With both optimizations off, uniform sweeps behave like split
  // counters (re-encrypt every 128 passes).
  DeltaCounters no_opts(64, DeltaConfig{false, false});
  for (int pass = 0; pass < 128; ++pass)
    for (BlockIndex b = 0; b < 64; ++b) no_opts.on_write(b);
  EXPECT_GE(no_opts.reencryptions(), 1u);
  EXPECT_EQ(no_opts.resets(), 0u);
  EXPECT_EQ(no_opts.reencodes(), 0u);

  DeltaCounters with_reset(64, DeltaConfig{true, false});
  for (int pass = 0; pass < 128; ++pass)
    for (BlockIndex b = 0; b < 64; ++b) with_reset.on_write(b);
  EXPECT_EQ(with_reset.reencryptions(), 0u);
}

TEST(DeltaCounters, ReferencesNeverDecrease) {
  DeltaCounters scheme(64);
  std::uint64_t prev_ref = 0;
  for (int i = 0; i < 5000; ++i) {
    scheme.on_write(i % 3);  // lopsided writes force every event type
    EXPECT_GE(scheme.group_reference(0), prev_ref);
    prev_ref = scheme.group_reference(0);
  }
}

// ---------------------------------------------------------- dual-length

TEST(DualLengthDelta, ExpansionExtendsHotSubgroupTo10Bits) {
  // Fig 6: one hot block overflows its 6-bit delta at 64 writes; the
  // spare bits expand its sub-group, deferring re-encryption to 1024.
  DualLengthDeltaCounters scheme(64);
  for (int i = 0; i < 63; ++i)
    EXPECT_EQ(scheme.on_write(0).event, CounterEvent::kIncrement);
  const auto expand = scheme.on_write(0);
  EXPECT_EQ(expand.event, CounterEvent::kExpand);
  EXPECT_EQ(scheme.expanded_group_of(0), 0);
  EXPECT_EQ(scheme.read_counter(0), 64u);

  for (int i = 64; i < 1023; ++i)
    EXPECT_EQ(scheme.on_write(0).event, CounterEvent::kIncrement) << i;
  const auto reenc = scheme.on_write(0);
  EXPECT_EQ(reenc.event, CounterEvent::kReencrypt);
  EXPECT_EQ(scheme.read_counter(0), 1024u);
  EXPECT_EQ(scheme.expanded_group_of(0), -1);  // expansion released
}

TEST(DualLengthDelta, SecondHotSubgroupCannotExpand) {
  // The facesim anomaly: two sub-groups racing -> only one gets the
  // overflow bits; the other re-encrypts at its 6-bit ceiling.
  DualLengthDeltaCounters scheme(64);
  for (int i = 0; i < 64; ++i) scheme.on_write(0);   // expands sub-group 0
  EXPECT_EQ(scheme.expanded_group_of(0), 0);
  for (int i = 0; i < 63; ++i) scheme.on_write(16);  // sub-group 1 fills
  const auto outcome = scheme.on_write(16);
  EXPECT_EQ(outcome.event, CounterEvent::kReencrypt);
  EXPECT_EQ(scheme.reencryptions(), 1u);
}

TEST(DualLengthDelta, UniformSweepResetsAndReleasesExpansion) {
  DualLengthDeltaCounters scheme(64);
  for (int i = 0; i < 64; ++i) scheme.on_write(0);  // expand sub-group 0
  ASSERT_EQ(scheme.expanded_group_of(0), 0);
  // Sweep everything until all deltas equal block 0's.
  for (int pass = 0; pass < 64; ++pass)
    for (BlockIndex b = 1; b < 64; ++b) scheme.on_write(b);
  // One more write to block 1..63 plus block 0 equalizes... instead
  // sweep all blocks including 0 until a reset fires.
  std::uint64_t resets_before = scheme.resets();
  for (int pass = 0; pass < 2 && scheme.resets() == resets_before; ++pass)
    for (BlockIndex b = 0; b < 64; ++b) scheme.on_write(b);
  EXPECT_GT(scheme.resets(), resets_before);
  EXPECT_EQ(scheme.expanded_group_of(0), -1);
}

TEST(DualLengthDelta, ReencodeRescuesExpandedGroupPressure) {
  DualLengthDeltaCounters scheme(64);
  // Give every block one write so Δmin can become nonzero later.
  for (BlockIndex b = 0; b < 64; ++b) scheme.on_write(b);
  // (that converged -> reset; do it again but unevenly)
  scheme.on_write(0);
  for (BlockIndex b = 0; b < 64; ++b) scheme.on_write(b);
  // block 0 delta = 2, rest = 1, ref advanced by resets. Hammer block 1
  // to its 6-bit limit: expansion first, then re-encode/re-encrypt.
  std::uint64_t increments = 0;
  for (int i = 0; i < 62; ++i) {
    if (scheme.on_write(1).event == CounterEvent::kIncrement) ++increments;
  }
  const auto outcome = scheme.on_write(1);
  EXPECT_EQ(outcome.event, CounterEvent::kExpand);
  EXPECT_EQ(scheme.reencryptions(), 0u);
  (void)increments;
}

TEST(DualLengthDelta, SerializationEncodesExpandedValues) {
  DualLengthDeltaCounters scheme(64);
  for (int i = 0; i < 100; ++i) scheme.on_write(0);  // delta[0] = 100 > 63
  std::array<std::uint8_t, 64> line{};
  scheme.serialize_line(0, line);
  std::array<std::uint8_t, 64> line2{};
  scheme.serialize_line(0, line2);
  EXPECT_EQ(line, line2);
  EXPECT_EQ(scheme.read_counter(0), 100u);
  // Flip one stored bit: representation must differ (injectivity smoke).
  line2[60] ^= 1;
  EXPECT_NE(line, line2);
}

// ------------------------------------------------------------ monolithic

TEST(Monolithic, PlainIncrementForever) {
  MonolithicCounters scheme(16);
  for (int i = 1; i <= 1000; ++i) {
    const auto outcome = scheme.on_write(7);
    EXPECT_EQ(outcome.event, CounterEvent::kIncrement);
    EXPECT_EQ(outcome.counter, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(scheme.read_counter(7), 1000u);
  EXPECT_EQ(scheme.read_counter(6), 0u);
}

TEST(Monolithic, EightCountersPerLine) {
  MonolithicCounters scheme(16);
  EXPECT_EQ(scheme.blocks_per_storage_line(), 8u);
  EXPECT_EQ(scheme.storage_line_of(7), 0u);
  EXPECT_EQ(scheme.storage_line_of(8), 1u);
}

// -------------------------------------------------- storage comparisons

TEST(StorageOverhead, DeltaIsRoughly7xSmallerThanMonolithic) {
  MonolithicCounters mono(64);
  DeltaCounters delta(64);
  const double ratio = mono.bits_per_block() / delta.bits_per_block();
  EXPECT_GT(ratio, 6.0);  // paper: "6x smaller storage requirement"
  EXPECT_LT(ratio, 8.0);
}

TEST(StorageOverhead, SplitMatchesPaper8xVersus64Bit) {
  MonolithicCounters mono64(64, 64);
  SplitCounters split(64);
  EXPECT_NEAR(mono64.bits_per_block() / split.bits_per_block(), 8.0, 0.1);
}

// ------------------------------------------------------- bulk decode

constexpr BlockIndex kBlocks = 64 * 40;

/// The restore commit path decodes the whole counter store with one
/// deserialize_all and refills every shadow counter with one
/// read_counters. Both must equal the per-line deserialize_line and
/// per-block read_counter reference — and the source scheme's own
/// counters — for every scheme, after a stream that overflows often.
TEST(BulkDecode, DeserializeAllAndReadCountersMatchPerLineDecode) {
  struct Case {
    std::string name;
    std::function<std::unique_ptr<CounterScheme>()> make;
  };
  std::vector<Case> cases = {
      {"split", [] { return std::make_unique<SplitCounters>(kBlocks); }},
      {"delta", [] { return std::make_unique<DeltaCounters>(kBlocks); }},
      {"dual-length",
       [] { return std::make_unique<DualLengthDeltaCounters>(kBlocks); }},
  };
  for (unsigned bits = 2; bits <= 7; ++bits) {
    cases.push_back({"generic" + std::to_string(bits), [bits] {
                       return std::make_unique<GenericDeltaCounters>(kBlocks,
                                                                     bits);
                     }});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto source = c.make();
    // Two in three writes hammer a few hot blocks spread over groups, so
    // their deltas overflow again and again; the rest scatter.
    Xoshiro256 rng(0xdec0de);
    std::uint64_t overflows = 0;
    for (int i = 0; i < 30000; ++i) {
      const BlockIndex block = i % 3 == 0
                                   ? rng.next_below(kBlocks)
                                   : (rng.next_below(8) * 311) % kBlocks;
      overflows += source->on_write(block).event == CounterEvent::kReencrypt;
    }
    EXPECT_GT(overflows, 10u);

    const std::uint64_t lines = source->num_storage_lines();
    std::vector<std::uint8_t> store(lines * 64);
    for (std::uint64_t line = 0; line < lines; ++line)
      source->serialize_line(
          line, std::span<std::uint8_t, 64>(store.data() + line * 64, 64));

    auto bulk = c.make();
    bulk->deserialize_all(store);
    std::vector<std::uint64_t> bulk_counters(kBlocks);
    bulk->read_counters(bulk_counters);

    auto per_line = c.make();
    for (std::uint64_t line = 0; line < lines; ++line)
      per_line->deserialize_line(line, std::span<const std::uint8_t, 64>(
                                           store.data() + line * 64, 64));
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      ASSERT_EQ(bulk_counters[b], per_line->read_counter(b)) << b;
      ASSERT_EQ(bulk_counters[b], source->read_counter(b)) << b;
    }
    // Decoded state re-serializes to the same store either way.
    for (std::uint64_t line = 0; line < lines; ++line) {
      std::array<std::uint8_t, 64> a{}, b{};
      bulk->serialize_line(line, a);
      per_line->serialize_line(line, b);
      ASSERT_EQ(a, b) << "line " << line;
      ASSERT_EQ(std::vector<std::uint8_t>(a.begin(), a.end()),
                std::vector<std::uint8_t>(store.begin() + line * 64,
                                          store.begin() + line * 64 + 64))
          << "line " << line;
    }
  }
}

}  // namespace
}  // namespace secmem
