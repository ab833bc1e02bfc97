// Counter-mode keystream generation for 64-byte memory blocks (paper §2.1).
//
// Each protected 64-byte block has an associated write counter. The
// keystream for a block is four AES-128 encryptions of the tweak
//   (block physical address ‖ counter ‖ chunk index)
// so the keystream is unique per (address, counter) pair — the address
// binds the pad to its location (spatial uniqueness) and the counter makes
// it one-time across writes (temporal uniqueness).
//
// The four tweak blocks are independent, so one keystream is exactly one
// Aes128::encrypt_blocks4 call — on AES-NI the four AESENC chains
// interleave and fill the pipeline. The single-block engine paths need
// the block's MAC pad under the same (address, counter) too; they get
// both from CwMac::keystream_and_pad, which runs the four keystream
// chains and the pad chain through one encrypt_blocks4_1 call
// (generate_with below). The batch paths pair keystreams through the
// 8-wide kernel instead (generate_batch, crypt_batch).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/aes128.h"

namespace secmem {

/// Size of a protected memory block — one cache line.
inline constexpr std::size_t kBlockBytes = 64;

using DataBlock = std::array<std::uint8_t, kBlockBytes>;

/// Generates per-block keystreams with AES-128 in counter mode.
class CtrKeystream {
 public:
  explicit CtrKeystream(const Aes128::Key& key) noexcept : aes_(key) {}

  /// Construct on an explicit kernel backend (differential tests,
  /// per-backend benches).
  CtrKeystream(const Aes128::Key& key, const Aes128Ops& ops) noexcept
      : aes_(key, ops) {}

  /// Fill `out` with the keystream for (block_addr, counter).
  /// `block_addr` is the 64-byte-aligned physical address of the block.
  void generate(std::uint64_t block_addr, std::uint64_t counter,
                std::span<std::uint8_t, kBlockBytes> out) const noexcept;

  /// generate() fused with one more AES block under `second`'s key:
  /// second_out = second(second_in), from the same kernel call
  /// (Aes128::encrypt_blocks4_1). CwMac::keystream_and_pad is the caller:
  /// it owns the pad tweak, this class owns the keystream tweaks.
  void generate_with(
      std::uint64_t block_addr, std::uint64_t counter,
      std::span<std::uint8_t, kBlockBytes> out, const Aes128& second,
      std::span<const std::uint8_t, Aes128::kBlockBytes> second_in,
      std::span<std::uint8_t, Aes128::kBlockBytes> second_out) const noexcept;

  /// Batch variant: out[i] = keystream(addrs[i], counters[i]). All three
  /// spans have the same length. Engines use this from read_blocks /
  /// write_blocks so pads for a whole request batch are produced
  /// back-to-back without re-entering the per-block pipeline.
  void generate_batch(std::span<const std::uint64_t> addrs,
                      std::span<const std::uint64_t> counters,
                      std::span<DataBlock> out) const noexcept;

  /// XOR the keystream for (block_addr, counter) into `data` in place.
  /// Counter-mode encryption and decryption are the same operation.
  void crypt(std::uint64_t block_addr, std::uint64_t counter,
             std::span<std::uint8_t, kBlockBytes> data) const noexcept;

  /// Batch variant of crypt: blocks[i] ^= keystream(addrs[i], counters[i]).
  void crypt_batch(std::span<const std::uint64_t> addrs,
                   std::span<const std::uint64_t> counters,
                   std::span<DataBlock> blocks) const noexcept;

  /// Kernel backend the underlying cipher bound to.
  const char* backend_name() const noexcept { return aes_.backend_name(); }

 private:
  Aes128 aes_;
};

}  // namespace secmem
