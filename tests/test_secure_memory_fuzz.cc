// Randomized differential and adversarial fuzzing of SecureMemory.
//
// Two properties a secure-memory implementation must never lose:
//   1. functional equivalence — interleaved reads/writes behave exactly
//      like a plain byte array (differential test vs std::vector),
//   2. no silent corruption — whatever an attacker or fault does to the
//      untrusted store, a read either returns the true data (possibly
//      via correction) or reports a violation. Wrong data with an OK
//      status is the one unforgivable outcome.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "engine/secure_memory.h"

namespace secmem {
namespace {

class SecureMemoryFuzz
    : public ::testing::TestWithParam<
          std::tuple<CounterSchemeKind, MacPlacement>> {
 protected:
  SecureMemoryConfig config() {
    SecureMemoryConfig c;
    c.size_bytes = 32 * 1024;  // 512 blocks, 8 groups
    c.scheme = std::get<0>(GetParam());
    c.mac_placement = std::get<1>(GetParam());
    return c;
  }
};

TEST_P(SecureMemoryFuzz, DifferentialAgainstPlainMemory) {
  SecureMemory memory(config());
  std::vector<std::uint8_t> model(memory.size_bytes(), 0);
  Xoshiro256 rng(static_cast<std::uint64_t>(std::get<0>(GetParam())) * 131 +
                 static_cast<std::uint64_t>(std::get<1>(GetParam())));

  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t addr = rng.next_below(memory.size_bytes() - 256);
    const std::size_t len = 1 + rng.next_below(256);
    if (rng.chance(0.5)) {
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      ASSERT_TRUE(status_ok(memory.write_bytes(addr, data)));
      std::memcpy(model.data() + addr, data.data(), len);
    } else {
      std::vector<std::uint8_t> out(len);
      ASSERT_TRUE(status_ok(memory.read_bytes(addr, out)));
      ASSERT_EQ(std::memcmp(out.data(), model.data() + addr, len), 0)
          << "divergence at op " << op << " addr " << addr;
    }
  }
  // Full final sweep.
  std::vector<std::uint8_t> all(memory.size_bytes());
  ASSERT_TRUE(status_ok(memory.read_bytes(0, all)));
  EXPECT_EQ(all, model);
}

TEST_P(SecureMemoryFuzz, NoSilentCorruptionUnderRandomTampering) {
  SecureMemory memory(config());
  Xoshiro256 rng(0xF422 + static_cast<std::uint64_t>(std::get<0>(GetParam())));
  std::vector<DataBlock> truth(memory.num_blocks());
  for (std::uint64_t b = 0; b < memory.num_blocks(); ++b) {
    for (auto& byte : truth[b]) byte = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(memory.write_block(b, truth[b]), Status::kOk);
  }

  auto attacker = memory.untrusted();
  int corrected = 0, violations = 0;
  for (int round = 0; round < 120; ++round) {
    const std::uint64_t block = rng.next_below(memory.num_blocks());
    // Random mischief: 1-4 flips across ciphertext / lane / counters.
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      switch (rng.next_below(3)) {
        case 0:
          attacker.flip_ciphertext_bit(
              block, static_cast<unsigned>(rng.next_below(512)));
          break;
        case 1:
          attacker.flip_lane_bit(block,
                                 static_cast<unsigned>(rng.next_below(64)));
          break;
        case 2:
          attacker.flip_counter_bit(
              memory.counters().storage_line_of(block),
              static_cast<unsigned>(rng.next_below(512)));
          break;
      }
    }

    const auto result = memory.read_block(block);
    switch (result.status) {
      case ReadStatus::kOk:
      case ReadStatus::kCorrectedMacField:
      case ReadStatus::kCorrectedData:
      case ReadStatus::kCorrectedWord:
        // If the implementation claims success, the data MUST be right.
        ASSERT_EQ(result.data, truth[block])
            << "SILENT CORRUPTION at round " << round;
        ++corrected;
        break;
      case ReadStatus::kIntegrityViolation:
      case ReadStatus::kCounterTampered:
        ++violations;
        break;
      case ReadStatus::kSnapshotIoError:
        FAIL() << "reads never report a snapshot stream error";
        break;
    }
    // Restore a clean state for the next round (rewrite block and heal
    // counter storage by rewriting a block in the same line's group).
    EXPECT_EQ(memory.write_block(block, truth[block]), Status::kOk);
  }
  // Both outcomes should occur across the adversarial rounds.
  EXPECT_GT(corrected + violations, 0);
  EXPECT_GT(violations, 0) << "nothing was ever detected?!";
}

TEST_P(SecureMemoryFuzz, HeavyRewriteTrafficKeepsVerifying) {
  // Hammer a few blocks through many counter-maintenance events (resets,
  // re-encodes, group re-encryptions) and verify everything still reads
  // back correctly afterwards.
  SecureMemory memory(config());
  Xoshiro256 rng(77);
  std::vector<DataBlock> last(memory.num_blocks());
  for (std::uint64_t b = 0; b < 64; ++b) {
    EXPECT_EQ(memory.write_block(b, DataBlock{}), Status::kOk);
  }
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t block = rng.next_below(8);  // all in group 0
    for (auto& byte : last[block])
      byte = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(memory.write_block(block, last[block]), Status::kOk);
  }
  for (std::uint64_t b = 0; b < 8; ++b) {
    const auto result = memory.read_block(b);
    ASSERT_EQ(result.status, ReadStatus::kOk) << b;
    EXPECT_EQ(result.data, last[b]) << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SecureMemoryFuzz,
    ::testing::Combine(::testing::Values(CounterSchemeKind::kMonolithic56,
                                         CounterSchemeKind::kSplit,
                                         CounterSchemeKind::kDelta,
                                         CounterSchemeKind::kDualDelta),
                       ::testing::Values(MacPlacement::kEccLane,
                                         MacPlacement::kSeparate)),
    [](const auto& info) {
      return std::string(counter_scheme_kind_name(std::get<0>(info.param)))
                 .substr(0, 5) +
             std::to_string(static_cast<int>(std::get<0>(info.param))) +
             (std::get<1>(info.param) == MacPlacement::kEccLane ? "_EccLane"
                                                                : "_SepMac");
    });

}  // namespace
}  // namespace secmem
