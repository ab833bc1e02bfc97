#include "reference_flip_and_check.h"

#include "common/bitops.h"

namespace secmem {

CorrectionResult ReferenceFlipAndCheck::correct(const DataBlock& block,
                                                const Verifier& verify) const {
  CorrectionResult result{};
  result.data = block;
  result.mac_evaluations = 0;

  auto check = [&](const DataBlock& candidate) {
    ++result.mac_evaluations;
    return verify(candidate);
  };

  if (check(block)) {
    result.status = CorrectionStatus::kClean;
    result.modeled_cycles = result.mac_evaluations * config_.cycles_per_mac;
    return result;
  }

  constexpr std::size_t kBits = kBlockBytes * 8;
  DataBlock candidate = block;

  if (config_.max_errors >= 1) {
    for (std::size_t i = 0; i < kBits; ++i) {
      flip_bit(candidate, i);
      if (check(candidate)) {
        result.status = CorrectionStatus::kCorrectedOne;
        result.data = candidate;
        result.flipped_bits[0] = static_cast<int>(i);
        result.modeled_cycles =
            result.mac_evaluations * config_.cycles_per_mac;
        return result;
      }
      flip_bit(candidate, i);  // restore
    }
  }

  if (config_.max_errors >= 2) {
    for (std::size_t i = 0; i + 1 < kBits; ++i) {
      flip_bit(candidate, i);
      for (std::size_t j = i + 1; j < kBits; ++j) {
        flip_bit(candidate, j);
        if (check(candidate)) {
          result.status = CorrectionStatus::kCorrectedTwo;
          result.data = candidate;
          result.flipped_bits[0] = static_cast<int>(i);
          result.flipped_bits[1] = static_cast<int>(j);
          result.modeled_cycles =
              result.mac_evaluations * config_.cycles_per_mac;
          return result;
        }
        flip_bit(candidate, j);
      }
      flip_bit(candidate, i);
    }
  }

  result.status = CorrectionStatus::kUncorrectable;
  result.modeled_cycles = result.mac_evaluations * config_.cycles_per_mac;
  return result;
}

}  // namespace secmem
