#include "ecc/flip_and_check.h"

#include <array>
#include <limits>

#include "common/bitops.h"
#include "crypto/gf64.h"

namespace secmem {

std::uint64_t FlipAndCheck::worst_case_checks(unsigned errors) noexcept {
  constexpr std::uint64_t kBits = kBlockBytes * 8;  // 512
  if (errors > kBits) return 0;  // no way to place more flips than bits
  // C(n,k) == C(n,n-k); the smaller side keeps the loop short.
  if (errors > kBits - errors) errors = static_cast<unsigned>(kBits) - errors;
  switch (errors) {
    case 0: return 1;
    case 1: return kBits;                      // 512
    case 2: return kBits * (kBits - 1) / 2;    // 130,816
    default: {
      // C(512, errors) — provided for analysis, not used operationally.
      // The running product c_{i+1} = c_i * (512-i) / (i+1) is itself a
      // binomial coefficient (division exact), but it exceeds 64 bits
      // from errors = 10 on: widen the multiply and saturate.
      constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
      unsigned __int128 c = 1;
      for (unsigned i = 0; i < errors; ++i) {
        c = c * (kBits - i) / (i + 1);
        if (c > kMax) return kMax;
      }
      return static_cast<std::uint64_t>(c);
    }
  }
}

CorrectionResult FlipAndCheck::correct_incremental(const DataBlock& block,
                                                   const CwMac& mac,
                                                   std::uint64_t pad,
                                                   std::uint64_t tag) const {
  CorrectionResult result{};
  result.data = block;
  result.mac_evaluations = 0;

  // One full hash of the received block; every candidate after this is
  // H ^ delta. Blinding with the pad and truncating commute with the
  // XOR, so the masked compare below is exactly CwMac::verify_with_pad.
  const std::uint64_t hash = mac.block_polyhash(block);
  const std::uint64_t target = tag & kMacMask;
  auto matches = [&](std::uint64_t h) {
    ++result.mac_evaluations;
    return ((h ^ pad) & kMacMask) == target;
  };

  auto finish = [&](CorrectionStatus status) {
    result.status = status;
    result.modeled_cycles = result.mac_evaluations * config_.cycles_per_mac;
    return result;
  };

  if (matches(hash)) return finish(CorrectionStatus::kClean);

  constexpr std::size_t kBits = kBlockBytes * 8;

  // delta[i]: full-hash change from flipping global bit i. Bit i lives in
  // little-endian word i/64, bit i%64, whose hash coefficient is
  // h^(8 - i/64); walking bit k -> k+1 within a word multiplies by x.
  std::array<std::uint64_t, kBits> delta;
  for (std::size_t word = 0; word < CwMac::kBlockWords; ++word) {
    std::uint64_t d = mac.word_coefficient(word);
    for (std::size_t k = 0; k < 64; ++k) {
      delta[word * 64 + k] = d;
      d = gf64_mul_x(d);
    }
  }

  if (config_.max_errors >= 1) {
    for (std::size_t i = 0; i < kBits; ++i) {
      if (matches(hash ^ delta[i])) {
        flip_bit(result.data, i);
        result.flipped_bits[0] = static_cast<int>(i);
        return finish(CorrectionStatus::kCorrectedOne);
      }
    }
  }

  if (config_.max_errors >= 2) {
    for (std::size_t i = 0; i + 1 < kBits; ++i) {
      const std::uint64_t hi = hash ^ delta[i];
      for (std::size_t j = i + 1; j < kBits; ++j) {
        if (matches(hi ^ delta[j])) {
          flip_bit(result.data, i);
          flip_bit(result.data, j);
          result.flipped_bits[0] = static_cast<int>(i);
          result.flipped_bits[1] = static_cast<int>(j);
          return finish(CorrectionStatus::kCorrectedTwo);
        }
      }
    }
  }

  return finish(CorrectionStatus::kUncorrectable);
}

}  // namespace secmem
