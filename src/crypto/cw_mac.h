// 56-bit Carter-Wegman message authentication code (paper §3.2).
//
// Construction (mirrors the SGX MAC described by Gueron, which the paper
// adopts): a polynomial-evaluation universal hash over GF(2^64) of the
// ciphertext, keyed by a secret field element h, is masked with a one-time
// AES pad derived from the block address and the write counter, then
// truncated to 56 bits:
//
//   tag = trunc56( polyhash_h(ct) XOR AES_k2(addr ‖ ctr ‖ MAC_DOMAIN) )
//
// Binding the pad to (addr, ctr) gives the Bonsai-Merkle-tree property
// (Rogers et al. [10]): a data MAC is valid only for this address and this
// counter value, so protecting counter integrity (via the tree) is enough
// to prevent replay of data blocks.
//
// The GF(2^64) multiplies dispatch with the rest of the crypto kernels.
// On a PCLMULQDQ host the hash takes each 64-byte chunk in one step with
// aggregated reduction: the eight words are multiplied by the
// precomputed powers h^8..h^1 (eight independent carry-less multiplies),
// the unreduced 128-bit products are XORed, and the sum is reduced once.
// Reduction mod the field polynomial is GF(2)-linear, so this is the
// same polynomial as the word-by-word Horner chain, bit for bit, with
// one reduction instead of eight on the critical path. Tail words take
// one multiply-by-h each, and the 16KB windowed table is never built.
// On the portable path the table is built once per key and each product
// is 8 loads + 7 XORs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "common/ct.h"
#include "crypto/aes128.h"
#include "crypto/ctr_keystream.h"
#include "crypto/gf64.h"

namespace secmem {

struct Gf64Ops;

/// Width of stored MAC tags. 56 bits leaves room for the 7-bit Hamming
/// code + 1 scrub parity bit inside a 64-bit ECC lane (paper §3.3).
inline constexpr unsigned kMacBits = 56;
inline constexpr std::uint64_t kMacMask = (std::uint64_t{1} << kMacBits) - 1;

/// Keys for the MAC: a GF(2^64) hash key and an AES pad key.
struct CwMacKey {
  std::uint64_t hash_key;  ///< h, the universal-hash evaluation point
  Aes128::Key pad_key;     ///< k2, keys the one-time pad PRF
};

/// Computes 56-bit Carter-Wegman tags over 64-byte blocks.
class CwMac {
 public:
  /// Number of 64-bit words hashed per 64-byte data block.
  static constexpr std::size_t kBlockWords = kBlockBytes / 8;

  explicit CwMac(const CwMacKey& key) noexcept;

  /// Construct on explicit kernel backends (differential tests,
  /// per-backend benches).
  CwMac(const CwMacKey& key, const Aes128Ops& aes_ops,
        const Gf64Ops& gf_ops) noexcept;

  /// Tag over an arbitrary-length message bound to (addr, counter).
  /// Message length need not be a multiple of 8; it is zero-padded and the
  /// bit length is absorbed as a final hash coefficient.
  std::uint64_t compute(std::uint64_t addr, std::uint64_t counter,
                        std::span<const std::uint8_t> message) const noexcept;

  /// Nonce-free PRF-style tag, bound to a domain constant instead of an
  /// (addr, counter) pad:
  ///
  ///   tag = AES_k2( polyhash_h(message) ‖ domain ‖ PRF_DOMAIN )
  ///
  /// The universal-hash output is ENCRYPTED rather than XOR-masked, so
  /// two tags never leak a hash-key equation no matter how many
  /// messages share the domain — the standard hash-then-PRF
  /// composition (an ε-almost-universal hash fed into a PRP is a
  /// secure MAC with no counter discipline). Use this wherever tweak
  /// uniqueness cannot be structurally guaranteed (snapshot-chain
  /// seals, delta command MACs — chain roots repeat per alignment and
  /// epochs reset on restore); the data path keeps the cheaper XOR
  /// construction, whose (addr, counter) freshness the write-counter
  /// scheme enforces. `domain` must fit 56 bits; returns the full
  /// 64-bit tag (these never share an ECC lane with code bits).
  std::uint64_t compute_prf(std::uint64_t domain,
                            std::span<const std::uint8_t> message)
      const noexcept;

  /// compute_prf over the concatenation of `parts`, hashed in place:
  /// bit-identical to compute_prf(domain, part0 ‖ part1 ‖ ...) without
  /// building that message. Parts may be empty and need not be
  /// word-aligned.
  std::uint64_t compute_prf(
      std::uint64_t domain,
      std::span<const std::span<const std::uint8_t>> parts) const noexcept;

  /// Convenience for 64-byte data blocks.
  std::uint64_t compute_block(std::uint64_t addr, std::uint64_t counter,
                              const DataBlock& block) const noexcept {
    return compute(addr, counter, std::span<const std::uint8_t>(block));
  }

  /// Batch variant: tags[i] over blocks[i] bound to (addrs[i],
  /// counters[i]). Pads are produced through the 8-wide AES kernel
  /// (pad_batch).
  void compute_batch(std::span<const std::uint64_t> addrs,
                     std::span<const std::uint64_t> counters,
                     std::span<const DataBlock> blocks,
                     std::span<std::uint64_t> tags) const noexcept;

  /// compute_batch over packed 64-byte messages: `lines` holds
  /// addrs.size() consecutive blocks (addrs.size() * 64 bytes). Lets
  /// callers whose messages already sit contiguously (Bonsai levels,
  /// counter-storage images) batch without staging into DataBlock copies.
  void compute_batch(std::span<const std::uint64_t> addrs,
                     std::span<const std::uint64_t> counters,
                     std::span<const std::uint8_t> lines,
                     std::span<std::uint64_t> tags) const noexcept;

  /// True if tag matches the recomputed value. Constant-time in the tag
  /// contents (ct_equal_u64): a mismatch reveals nothing about *which*
  /// bits differ, closing the byte-at-a-time forgery oracle.
  [[nodiscard]] bool verify(std::uint64_t addr, std::uint64_t counter,
                            std::span<const std::uint8_t> message,
                            std::uint64_t tag) const noexcept {
    return ct_equal_u64(compute(addr, counter, message), tag & kMacMask);
  }

  /// The AES one-time pad for (addr, counter). The pad is independent of
  /// the message, so callers that check many candidate messages under one
  /// (addr, counter) — flip-and-check error correction above all — hoist
  /// this single AES call out of the loop.
  std::uint64_t pad_for(std::uint64_t addr,
                        std::uint64_t counter) const noexcept;

  /// Batch variant of pad_for: pads[i] for (addrs[i], counters[i]). Eight
  /// pad tweaks go through one interleaved AES call (encrypt_blocks8); a
  /// tail of fewer than eight takes pad_for each.
  void pad_batch(std::span<const std::uint64_t> addrs,
                 std::span<const std::uint64_t> counters,
                 std::span<std::uint64_t> pads) const noexcept;

  /// The 64-byte CTR keystream of `keystream` for (addr, counter), into
  /// `ks_out`, and the MAC pad pad_for(addr, counter), returned — from
  /// ONE AES kernel call (Aes128::encrypt_blocks4_1: four keystream
  /// chains plus the pad chain). Bit-identical to keystream.generate()
  /// and pad_for(). This is the single-block engine paths' only cipher
  /// call: a verified read needs the pad before the MAC check and the
  /// keystream after it, and neither depends on the data.
  std::uint64_t keystream_and_pad(
      const CtrKeystream& keystream, std::uint64_t addr, std::uint64_t counter,
      std::span<std::uint8_t, kBlockBytes> ks_out) const noexcept;

  /// Tag given a precomputed pad (see pad_for).
  std::uint64_t compute_with_pad(
      std::uint64_t pad, std::span<const std::uint8_t> message) const noexcept {
    return (polyhash(message) ^ pad) & kMacMask;
  }

  [[nodiscard]] bool verify_with_pad(std::uint64_t pad,
                                     std::span<const std::uint8_t> message,
                                     std::uint64_t tag) const noexcept {
    return ct_equal_u64(compute_with_pad(pad, message), tag & kMacMask);
  }

  /// Full (unmasked) 64-bit universal hash of a 64-byte block:
  ///   H = sum_j m_j * h^(8-j)  XOR  512            (j = 0..7)
  /// The hash is GF(2)-linear in the message, so flipping bit k of word j
  /// shifts H by exactly x^k * h^(8-j) — the identity incremental
  /// flip-and-check is built on. tag = (H ^ pad) & kMacMask.
  std::uint64_t block_polyhash(const DataBlock& block) const noexcept;

  /// h^(8-word): the hash coefficient of 64-bit word `word` (0..7) of a
  /// 64-byte block. Precomputed at construction.
  std::uint64_t word_coefficient(std::size_t word) const noexcept {
    return word_coeff_[word];
  }

  /// GF(2^64) kernel this instance bound to ("portable", "pclmul").
  const char* gf_backend_name() const noexcept;

  /// AES kernel the pad cipher bound to ("portable", "aes-ni").
  const char* aes_backend_name() const noexcept {
    return pad_.backend_name();
  }

 private:
  std::uint64_t polyhash(std::span<const std::uint8_t> message) const noexcept;
  /// AES_k2( hash ‖ domain ‖ PRF_DOMAIN ): the PRF step of compute_prf.
  std::uint64_t prf_of_hash(std::uint64_t domain,
                            std::uint64_t hash) const noexcept;

  /// x * h on whichever path this key bound to.
  std::uint64_t mul_h(std::uint64_t x) const noexcept;

  /// Eight Horner steps u <- (u ^ m_j) * h over the words of one 64-byte
  /// chunk: Gf64Ops::fold8 with word_coeff_, or the table on the
  /// portable path.
  std::uint64_t fold8(std::uint64_t u,
                      const std::uint8_t* chunk) const noexcept;

  std::uint64_t h_;
  const Gf64Ops* gf_;
  /// Windowed multiply-by-h table — built only on the portable path
  /// (with PCLMULQDQ the direct product beats the 16KB table walk).
  std::unique_ptr<Gf64MulTable> mul_h_;
  /// word_coeff_[j] = h^(8-j), the coefficient of block word j.
  std::array<std::uint64_t, kBlockWords> word_coeff_;
  Aes128 pad_;
};

}  // namespace secmem
