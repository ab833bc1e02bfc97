// Unified outcome vocabulary for secure-memory operations.
//
// Every data-path entry point (block reads and writes, byte-level I/O,
// scrubbing, saves) reports one of these values instead of a bare bool
// or a per-class enum. Reads report the verdict of the checks they ran;
// block writes cannot fail and report kOk; a save reports kOk or
// kSnapshotIoError. The enumerators are severity-ordered: kOk <
// corrected states < failure states, so `worse()` can fold the outcome
// of a multi-block operation into the single most severe status, and
// `status_ok()` is a simple threshold compare.
#pragma once

#include <cstdint>

namespace secmem {

enum class [[nodiscard]] Status : std::uint8_t {
  kOk = 0,              ///< verified clean
  kCorrectedMacField,   ///< single-bit flip in the MAC lane repaired
  kCorrectedData,       ///< 1-2 data bits repaired by flip-and-check
  kCorrectedWord,       ///< SEC-DED corrected word(s) (separate-MAC mode)
  kIntegrityViolation,  ///< tamper or uncorrectable fault in data/MAC
  kSnapshotIoError,     ///< snapshot stream write failed; the chain did
                        ///< not advance — retry or fall back to save()
  kCounterTampered,     ///< counter storage failed tree authentication
};

constexpr const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kCorrectedMacField: return "corrected-mac-field";
    case Status::kCorrectedData: return "corrected-data";
    case Status::kCorrectedWord: return "corrected-word";
    case Status::kIntegrityViolation: return "integrity-violation";
    case Status::kSnapshotIoError: return "snapshot-io-error";
    case Status::kCounterTampered: return "counter-tampered";
  }
  return "?";
}

/// Data was served (possibly after correction).
constexpr bool status_ok(Status status) noexcept {
  return status < Status::kIntegrityViolation;
}

/// The more severe of two outcomes.
constexpr Status worse(Status a, Status b) noexcept { return a < b ? b : a; }

}  // namespace secmem
