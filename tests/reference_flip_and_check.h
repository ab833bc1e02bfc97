// ReferenceFlipAndCheck — the generic flip-and-check search (paper §3.4)
// the production corrector is diffed against.
//
// FlipAndCheck::correct_incremental prices each candidate at one XOR and
// a masked compare, using the Carter-Wegman hash's GF(2)-linearity. This
// model assumes nothing about the MAC: it flips each candidate bit (or
// pair) into a copy of the block and re-runs an arbitrary verification
// predicate on it, so it works against CwMac::verify or toy checkers.
// Candidate order, result fields and evaluation counts are the contract
// correct_incremental must match.
//
// Test-only: nothing in src/ links it.
#pragma once

#include <functional>

#include "crypto/ctr_keystream.h"
#include "ecc/flip_and_check.h"

namespace secmem {

class ReferenceFlipAndCheck {
 public:
  /// `verify(block)` returns true iff the block's MAC checks out.
  using Verifier = std::function<bool(const DataBlock&)>;

  ReferenceFlipAndCheck() noexcept = default;
  explicit ReferenceFlipAndCheck(const FlipAndCheck::Config& config) noexcept
      : config_(config) {}

  /// Try to make `block` verify by flipping up to max_errors bits.
  CorrectionResult correct(const DataBlock& block,
                           const Verifier& verify) const;

 private:
  FlipAndCheck::Config config_{};
};

}  // namespace secmem
