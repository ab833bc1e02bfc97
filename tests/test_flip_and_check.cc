// Flip-and-check correction (paper §3.4). The FlipAndCheck.* searches
// exercise the generic test-side reference (reference_flip_and_check.h)
// against a real CwMac predicate; FlipAndCheckIncremental.* pin the
// production corrector to that reference result for result.
#include "ecc/flip_and_check.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/bitops.h"
#include "common/rng.h"
#include "crypto/cw_mac.h"
#include "reference_flip_and_check.h"

namespace secmem {
namespace {

CwMacKey test_key() {
  CwMacKey key{};
  key.hash_key = 0xfeedface12345678ULL;
  for (int i = 0; i < 16; ++i) key.pad_key[i] = static_cast<std::uint8_t>(i);
  return key;
}

struct Fixture {
  CwMac mac{test_key()};
  DataBlock block{};
  std::uint64_t tag = 0;
  ReferenceFlipAndCheck::Verifier verifier;

  explicit Fixture(std::uint64_t seed) {
    Xoshiro256 rng(seed);
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
    tag = mac.compute_block(0x40, 1, block);
    verifier = [this](const DataBlock& candidate) {
      return mac.verify(0x40, 1, candidate, tag);
    };
  }
};

TEST(FlipAndCheck, CleanBlockNoWork) {
  Fixture f(1);
  ReferenceFlipAndCheck corrector;
  const auto result = corrector.correct(f.block, f.verifier);
  EXPECT_EQ(result.status, CorrectionStatus::kClean);
  EXPECT_EQ(result.mac_evaluations, 1u);
  EXPECT_EQ(result.data, f.block);
}

TEST(FlipAndCheck, SingleBitErrorsSampledAcrossBlock) {
  Fixture f(2);
  ReferenceFlipAndCheck corrector;
  for (std::size_t bit = 0; bit < 512; bit += 23) {
    DataBlock corrupted = f.block;
    flip_bit(corrupted, bit);
    const auto result = corrector.correct(corrupted, f.verifier);
    EXPECT_EQ(result.status, CorrectionStatus::kCorrectedOne) << bit;
    EXPECT_EQ(result.data, f.block) << bit;
    EXPECT_EQ(result.flipped_bits[0], static_cast<int>(bit));
    EXPECT_LE(result.mac_evaluations, 1 + 512u);
  }
}

TEST(FlipAndCheck, FirstAndLastBitPositions) {
  Fixture f(3);
  ReferenceFlipAndCheck corrector;
  for (std::size_t bit : {std::size_t{0}, std::size_t{511}}) {
    DataBlock corrupted = f.block;
    flip_bit(corrupted, bit);
    const auto result = corrector.correct(corrupted, f.verifier);
    EXPECT_EQ(result.status, CorrectionStatus::kCorrectedOne);
    EXPECT_EQ(result.data, f.block);
  }
}

TEST(FlipAndCheck, DoubleBitErrorsCorrected) {
  Fixture f(4);
  ReferenceFlipAndCheck corrector;
  const std::pair<std::size_t, std::size_t> cases[] = {
      {0, 1},      // adjacent, same word — standard SEC-DED would fail
      {3, 60},     // same word
      {10, 200},   // across words
      {500, 511},  // tail
  };
  for (const auto& [i, j] : cases) {
    DataBlock corrupted = f.block;
    flip_bit(corrupted, i);
    flip_bit(corrupted, j);
    const auto result = corrector.correct(corrupted, f.verifier);
    EXPECT_EQ(result.status, CorrectionStatus::kCorrectedTwo)
        << i << "," << j;
    EXPECT_EQ(result.data, f.block) << i << "," << j;
    EXPECT_LE(result.mac_evaluations,
              1 + 512u + FlipAndCheck::worst_case_checks(2));
  }
}

TEST(FlipAndCheck, TripleBitErrorUncorrectableAtMaxTwo) {
  Fixture f(5);
  ReferenceFlipAndCheck corrector;
  DataBlock corrupted = f.block;
  flip_bit(corrupted, 1);
  flip_bit(corrupted, 77);
  flip_bit(corrupted, 401);
  const auto result = corrector.correct(corrupted, f.verifier);
  EXPECT_EQ(result.status, CorrectionStatus::kUncorrectable);
}

TEST(FlipAndCheck, MaxErrorsZeroOnlyDetects) {
  Fixture f(6);
  ReferenceFlipAndCheck corrector(FlipAndCheck::Config{0, 1});
  DataBlock corrupted = f.block;
  flip_bit(corrupted, 42);
  const auto result = corrector.correct(corrupted, f.verifier);
  EXPECT_EQ(result.status, CorrectionStatus::kUncorrectable);
  EXPECT_EQ(result.mac_evaluations, 1u);
}

TEST(FlipAndCheck, MaxErrorsOneSkipsPairSearch) {
  Fixture f(7);
  ReferenceFlipAndCheck corrector(FlipAndCheck::Config{1, 1});
  DataBlock corrupted = f.block;
  flip_bit(corrupted, 3);
  flip_bit(corrupted, 300);
  const auto result = corrector.correct(corrupted, f.verifier);
  EXPECT_EQ(result.status, CorrectionStatus::kUncorrectable);
  EXPECT_LE(result.mac_evaluations, 1 + 512u);
}

TEST(FlipAndCheck, WorstCaseCheckCountsMatchPaper) {
  // Paper §3.4: 512 checks for single-bit, C(512,2) = 130,816 for double.
  EXPECT_EQ(FlipAndCheck::worst_case_checks(1), 512u);
  EXPECT_EQ(FlipAndCheck::worst_case_checks(2), 130816u);
}

TEST(FlipAndCheck, WorstCaseChecksExactAboveTwo) {
  EXPECT_EQ(FlipAndCheck::worst_case_checks(0), 1u);
  EXPECT_EQ(FlipAndCheck::worst_case_checks(3), 22238720u);  // C(512,3)
  EXPECT_EQ(FlipAndCheck::worst_case_checks(4), 2829877120u);
}

TEST(FlipAndCheck, WorstCaseChecksSaturatesInsteadOfOverflowing) {
  // C(512,9) still fits in 64 bits; C(512,10) ≈ 3.1e20 does not. The old
  // running-product implementation silently wrapped; now it saturates.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_LT(FlipAndCheck::worst_case_checks(9), kMax);
  EXPECT_GT(FlipAndCheck::worst_case_checks(9),
            FlipAndCheck::worst_case_checks(8));
  EXPECT_EQ(FlipAndCheck::worst_case_checks(10), kMax);
  EXPECT_EQ(FlipAndCheck::worst_case_checks(256), kMax);
}

TEST(FlipAndCheck, WorstCaseChecksSymmetryAndRange) {
  // C(512,k) == C(512,512-k); more flips than bits is impossible.
  EXPECT_EQ(FlipAndCheck::worst_case_checks(512), 1u);
  EXPECT_EQ(FlipAndCheck::worst_case_checks(511), 512u);
  EXPECT_EQ(FlipAndCheck::worst_case_checks(510), 130816u);
  EXPECT_EQ(FlipAndCheck::worst_case_checks(509),
            FlipAndCheck::worst_case_checks(3));
  EXPECT_EQ(FlipAndCheck::worst_case_checks(513), 0u);
  EXPECT_EQ(FlipAndCheck::worst_case_checks(100000), 0u);
}

TEST(FlipAndCheck, ModeledCyclesScaleWithCyclesPerMac) {
  Fixture f(8);
  ReferenceFlipAndCheck fast(FlipAndCheck::Config{2, 1});
  ReferenceFlipAndCheck slow(FlipAndCheck::Config{2, 4});
  DataBlock corrupted = f.block;
  flip_bit(corrupted, 128);
  const auto r1 = fast.correct(corrupted, f.verifier);
  const auto r2 = slow.correct(corrupted, f.verifier);
  EXPECT_EQ(r1.mac_evaluations, r2.mac_evaluations);
  EXPECT_EQ(r2.modeled_cycles, 4 * r1.modeled_cycles);
}

TEST(FlipAndCheck, NeverMiscorrects) {
  // With a real 56-bit MAC, the corrector must only ever return the true
  // original block — a wrong candidate verifying would be a MAC collision.
  Fixture f(9);
  ReferenceFlipAndCheck corrector;
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    DataBlock corrupted = f.block;
    flip_bit(corrupted, rng.next_below(512));
    flip_bit(corrupted, rng.next_below(512));
    const auto result = corrector.correct(corrupted, f.verifier);
    if (result.status == CorrectionStatus::kCorrectedOne ||
        result.status == CorrectionStatus::kCorrectedTwo ||
        result.status == CorrectionStatus::kClean) {
      EXPECT_EQ(result.data, f.block);
    }
  }
}

// ---------------------------------------------------------------------
// Incremental corrector: same searches via per-bit GF(2^64) hash deltas.
// ---------------------------------------------------------------------

struct IncrementalFixture : Fixture {
  std::uint64_t pad;
  explicit IncrementalFixture(std::uint64_t seed)
      : Fixture(seed), pad(mac.pad_for(0x40, 1)) {}
};

TEST(FlipAndCheckIncremental, CleanBlockNoWork) {
  IncrementalFixture f(21);
  FlipAndCheck corrector;
  const auto result = corrector.correct_incremental(f.block, f.mac, f.pad,
                                                    f.tag);
  EXPECT_EQ(result.status, CorrectionStatus::kClean);
  EXPECT_EQ(result.mac_evaluations, 1u);
  EXPECT_EQ(result.data, f.block);
}

TEST(FlipAndCheckIncremental, MatchesGenericOnSingleBitErrors) {
  IncrementalFixture f(22);
  FlipAndCheck corrector;
  ReferenceFlipAndCheck reference;
  for (std::size_t bit = 0; bit < 512; bit += 17) {
    DataBlock corrupted = f.block;
    flip_bit(corrupted, bit);
    const auto fast =
        corrector.correct_incremental(corrupted, f.mac, f.pad, f.tag);
    const auto slow = reference.correct(corrupted, f.verifier);
    EXPECT_EQ(fast.status, slow.status) << bit;
    EXPECT_EQ(fast.data, slow.data) << bit;
    EXPECT_EQ(fast.mac_evaluations, slow.mac_evaluations) << bit;
    EXPECT_EQ(fast.flipped_bits[0], slow.flipped_bits[0]) << bit;
    EXPECT_EQ(fast.data, f.block) << bit;
  }
}

TEST(FlipAndCheckIncremental, MatchesGenericOnDoubleBitErrors) {
  IncrementalFixture f(23);
  FlipAndCheck corrector;
  ReferenceFlipAndCheck reference;
  Xoshiro256 rng(777);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t i = rng.next_below(512);
    std::size_t j = rng.next_below(512);
    if (j == i) j = (j + 1) % 512;
    DataBlock corrupted = f.block;
    flip_bit(corrupted, i);
    flip_bit(corrupted, j);
    const auto fast =
        corrector.correct_incremental(corrupted, f.mac, f.pad, f.tag);
    const auto slow = reference.correct(corrupted, f.verifier);
    EXPECT_EQ(fast.status, slow.status) << i << "," << j;
    EXPECT_EQ(fast.data, slow.data) << i << "," << j;
    EXPECT_EQ(fast.mac_evaluations, slow.mac_evaluations) << i << "," << j;
    EXPECT_EQ(fast.flipped_bits[0], slow.flipped_bits[0]);
    EXPECT_EQ(fast.flipped_bits[1], slow.flipped_bits[1]);
  }
}

TEST(FlipAndCheckIncremental, TripleBitErrorUncorrectableWithFullCount) {
  IncrementalFixture f(24);
  FlipAndCheck corrector;
  DataBlock corrupted = f.block;
  flip_bit(corrupted, 1);
  flip_bit(corrupted, 77);
  flip_bit(corrupted, 401);
  const auto result =
      corrector.correct_incremental(corrupted, f.mac, f.pad, f.tag);
  EXPECT_EQ(result.status, CorrectionStatus::kUncorrectable);
  EXPECT_EQ(result.mac_evaluations,
            1 + 512u + FlipAndCheck::worst_case_checks(2));
}

TEST(FlipAndCheckIncremental, RespectsMaxErrorsConfig) {
  IncrementalFixture f(25);
  DataBlock corrupted = f.block;
  flip_bit(corrupted, 42);
  {
    FlipAndCheck detect_only(FlipAndCheck::Config{0, 1});
    const auto result =
        detect_only.correct_incremental(corrupted, f.mac, f.pad, f.tag);
    EXPECT_EQ(result.status, CorrectionStatus::kUncorrectable);
    EXPECT_EQ(result.mac_evaluations, 1u);
  }
  {
    FlipAndCheck single(FlipAndCheck::Config{1, 1});
    const auto result =
        single.correct_incremental(corrupted, f.mac, f.pad, f.tag);
    EXPECT_EQ(result.status, CorrectionStatus::kCorrectedOne);
    EXPECT_EQ(result.data, f.block);
  }
}

}  // namespace
}  // namespace secmem
