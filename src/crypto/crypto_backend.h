// Dispatch tables for the crypto hot kernels.
//
// Each primitive family exposes an ops struct: a portable instance
// (always present — the reference implementation and the fallback), an
// accelerated instance (AES-NI / PCLMULQDQ; null when the build or the
// host CPU lacks the instructions), and a selector that applies the
// policy from cpu_features.h. Objects (Aes128, CwMac, CtrKeystream)
// bind to an ops table at construction, so a policy change via
// set_crypto_backend_choice() affects objects constructed afterwards —
// which is exactly what differential tests and per-backend benches need.
//
// Round-key layout is part of the contract: expand_key produces the
// FIPS-197 byte-serialized schedule (11 x 16 bytes), identical across
// backends, so schedules and ops are freely mixable.
#pragma once

#include <cstdint>

#include "crypto/gf64.h"  // Clmul128

namespace secmem {

/// AES-128 kernel ops. `rk` is the 176-byte expanded schedule.
struct Aes128Ops {
  const char* name;
  /// FIPS-197 §5.2 key expansion: 16-byte key -> 176-byte schedule.
  void (*expand_key)(const std::uint8_t* key, std::uint8_t* rk);
  /// Encrypt one 16-byte block (in == out allowed).
  void (*encrypt1)(const std::uint8_t* rk, const std::uint8_t* in,
                   std::uint8_t* out);
  /// Encrypt four independent 16-byte blocks (64 bytes in/out). The
  /// AES-NI kernel interleaves the four AESENC chains to fill the
  /// pipeline; portable falls back to four sequential encryptions.
  void (*encrypt4)(const std::uint8_t* rk, const std::uint8_t* in,
                   std::uint8_t* out);
  /// encrypt4(rk_a, in4, out4) and encrypt1(rk_b, in1, out1) in one call:
  /// a block's 64-byte CTR keystream and its MAC pad, which use different
  /// keys but no data. The AES-NI kernel runs the five AESENC chains
  /// interleaved, so the pad rides in the keystream's pipeline bubbles
  /// instead of paying a second serial AES latency; portable is encrypt4
  /// followed by encrypt1. in == out allowed for each pair.
  void (*encrypt4_1)(const std::uint8_t* rk_a, const std::uint8_t* in4,
                     std::uint8_t* out4, const std::uint8_t* rk_b,
                     const std::uint8_t* in1, std::uint8_t* out1);
  /// Encrypt eight independent 16-byte blocks (128 bytes in/out) — two
  /// 64-byte CTR keystreams per call. AESENC retires ~2/cycle with ~4
  /// cycles latency, so four chains only half-fill the unit; the batch
  /// paths (crypt_batch, group re-encryption) use eight chains to
  /// saturate it. Portable falls back to eight sequential encryptions.
  void (*encrypt8)(const std::uint8_t* rk, const std::uint8_t* in,
                   std::uint8_t* out);
  /// Decrypt one 16-byte block (in == out allowed).
  void (*decrypt1)(const std::uint8_t* rk, const std::uint8_t* in,
                   std::uint8_t* out);
};

/// GF(2^64) kernel ops (reduction modulo x^64 + x^4 + x^3 + x + 1).
struct Gf64Ops {
  const char* name;
  Clmul128 (*clmul)(std::uint64_t a, std::uint64_t b);
  std::uint64_t (*mul)(std::uint64_t a, std::uint64_t b);
  /// One 64-byte chunk of a polynomial hash:
  ///   sum_j (m_j ^ [j == 0] * u) * coeffs[j]      (j = 0..7)
  /// where m_j is little-endian word j of `chunk`. With coeffs[j] =
  /// h^(8-j) this is eight Horner steps u = (u ^ m_j) * h in one go.
  std::uint64_t (*fold8)(std::uint64_t u, const std::uint64_t* coeffs,
                         const std::uint8_t* chunk);
};

const Aes128Ops& aes128_ops_portable() noexcept;
/// Null when the build lacks AES-NI support or the CPU doesn't have it.
const Aes128Ops* aes128_ops_accelerated() noexcept;
/// The table the current policy selects (see cpu_features.h).
const Aes128Ops& aes128_ops() noexcept;

const Gf64Ops& gf64_ops_portable() noexcept;
const Gf64Ops* gf64_ops_accelerated() noexcept;
const Gf64Ops& gf64_ops() noexcept;

/// Human-readable summary of what the current policy resolves to, e.g.
/// "aes-ni+pclmul" or "portable" — for logs, benches, and docs.
const char* crypto_backend_summary() noexcept;

}  // namespace secmem
