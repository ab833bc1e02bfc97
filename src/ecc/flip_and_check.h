// Brute-force "flip-and-check" MAC-based error correction (paper §3.4).
//
// A MAC detects that *some* bits flipped but not which; to correct, the
// controller flips candidate bit(s) and re-verifies the MAC:
//   - single-bit errors: <= 512 trials over a 64-byte block
//   - double-bit errors: <= C(512,2) = 130,816 trials
// The MAC field itself is protected by its own 7-bit Hamming code
// (mac_ecc.h), so only data-bit flips need the brute-force search.
//
// correct_incremental() exploits that the Carter-Wegman hash is
// GF(2)-linear in the message: flipping bit k of 64-bit word j shifts the
// full hash by exactly x^k * h^(8-j). The 512 per-bit hash deltas are
// walked in O(1) each (multiply-by-x), and every candidate trial is then
// one XOR and one masked compare instead of a fresh 8-word polynomial
// hash. The generic search that re-hashes every candidate through an
// arbitrary predicate lives in tests/ as the differential reference
// (ReferenceFlipAndCheck); results (status, repaired bits, trial counts)
// match it bit for bit by linearity.
//
// The result reports the number of MAC evaluations performed and a
// modeled hardware cycle cost (one GF-multiply-based MAC evaluates in ~1
// cycle, paper §3.4).
#pragma once

#include <cstdint>

#include "crypto/ctr_keystream.h"
#include "crypto/cw_mac.h"

namespace secmem {

/// Outcome of a flip-and-check correction attempt.
enum class CorrectionStatus : std::uint8_t {
  kClean,          ///< MAC verified without any flips
  kCorrectedOne,   ///< one data bit repaired
  kCorrectedTwo,   ///< two data bits repaired
  kUncorrectable,  ///< no 0/1/2-bit variant verified
};

struct [[nodiscard]] CorrectionResult {
  CorrectionStatus status;
  DataBlock data;                 ///< repaired block (valid unless kUncorrectable)
  std::uint64_t mac_evaluations;  ///< verification attempts performed
  std::uint64_t modeled_cycles;   ///< evaluations x cycles-per-MAC
  int flipped_bits[2] = {-1, -1}; ///< bit positions repaired, -1 if unused
};

class FlipAndCheck {
 public:
  struct Config {
    /// Highest number of simultaneous bit errors to attempt (0..2).
    /// The paper stops at 2: beyond that the worst case explodes to
    /// millions of cycles (§3.4 item 1).
    unsigned max_errors = 2;
    /// Modeled cycles per MAC evaluation; state-of-the-art Galois-field
    /// MACs compute in a single cycle in hardware (paper §3.4).
    unsigned cycles_per_mac = 1;
  };

  FlipAndCheck() noexcept : config_(Config{}) {}
  explicit FlipAndCheck(const Config& config) noexcept : config_(config) {}

  /// Try to make `block` verify by flipping up to max_errors bits, in
  /// the paper's order: the block as is, then every single bit, then
  /// every pair (i < j). `pad` is mac.pad_for(addr, counter) and `tag`
  /// the stored (56-bit) tag; a candidate verifies iff
  /// (hash ^ pad) & kMacMask == tag & kMacMask, the same predicate
  /// CwMac::verify_with_pad applies, at O(1) per trial.
  CorrectionResult correct_incremental(const DataBlock& block,
                                       const CwMac& mac, std::uint64_t pad,
                                       std::uint64_t tag) const;

  /// Worst-case MAC evaluations for a given error count over 512 bits:
  /// C(512, errors), saturating to UINT64_MAX when the true value
  /// exceeds 64 bits (first at errors = 10) and 0 for errors > 512.
  static std::uint64_t worst_case_checks(unsigned errors) noexcept;

 private:
  Config config_;
};

}  // namespace secmem
