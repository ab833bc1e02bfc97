// AES-128 block cipher (FIPS-197) with runtime kernel dispatch.
//
// The memory-encryption engine uses AES-128 in counter mode to generate
// keystreams (paper §2.1) and as the pseudo-random pad for the
// Carter-Wegman MAC (paper §3.2). Each instance binds at construction to
// one of two kernel backends (crypto_backend.h): the portable
// byte-oriented reference implementation, or AES-NI when the CPU has it.
// Both produce the identical FIPS-197 byte-serialized key schedule and
// bit-identical ciphertexts; SECMEM_FORCE_PORTABLE=1 pins the fallback.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace secmem {

struct Aes128Ops;

/// AES-128: 128-bit key, 128-bit block, 10 rounds.
class Aes128 {
 public:
  static constexpr std::size_t kBlockBytes = 16;
  static constexpr std::size_t kKeyBytes = 16;
  static constexpr int kRounds = 10;
  /// Width of the interleaved multi-block kernel (one CTR keystream).
  static constexpr std::size_t kParallelBlocks = 4;
  /// Width of the wide kernel (two CTR keystreams) used by the batch
  /// paths: eight in-flight AESENC chains saturate the AES unit where
  /// four only half-fill it (latency ~4 cycles, throughput ~2/cycle).
  static constexpr std::size_t kWideParallelBlocks = 8;

  using Block = std::array<std::uint8_t, kBlockBytes>;
  using Key = std::array<std::uint8_t, kKeyBytes>;

  /// Expands the key schedule on the backend the current policy selects
  /// (see cpu_features.h). The key is not retained beyond the schedule.
  explicit Aes128(const Key& key) noexcept;

  /// Expands the key schedule on an explicit backend (differential tests
  /// and per-backend benches).
  Aes128(const Key& key, const Aes128Ops& ops) noexcept;

  /// Encrypt one 16-byte block (out-of-place; in == out allowed).
  void encrypt_block(std::span<const std::uint8_t, kBlockBytes> in,
                     std::span<std::uint8_t, kBlockBytes> out) const noexcept;

  /// Decrypt one 16-byte block (out-of-place; in == out allowed).
  void decrypt_block(std::span<const std::uint8_t, kBlockBytes> in,
                     std::span<std::uint8_t, kBlockBytes> out) const noexcept;

  /// Encrypt four independent 16-byte blocks in one call (64 bytes
  /// in/out; in == out allowed). On AES-NI the four AESENC dependency
  /// chains interleave and fill the pipeline — this is the kernel behind
  /// every 64-byte CTR keystream.
  void encrypt_blocks4(
      std::span<const std::uint8_t, kParallelBlocks * kBlockBytes> in,
      std::span<std::uint8_t, kParallelBlocks * kBlockBytes> out)
      const noexcept;

  /// encrypt_blocks4(in4, out4) under this key and
  /// second.encrypt_block(in1, out1) under `second`'s, in one kernel call
  /// on this instance's backend (schedules are backend independent). On
  /// AES-NI the five AESENC chains interleave: a CTR keystream and a MAC
  /// pad cost about one keystream's latency instead of two serial calls.
  void encrypt_blocks4_1(
      std::span<const std::uint8_t, kParallelBlocks * kBlockBytes> in4,
      std::span<std::uint8_t, kParallelBlocks * kBlockBytes> out4,
      const Aes128& second, std::span<const std::uint8_t, kBlockBytes> in1,
      std::span<std::uint8_t, kBlockBytes> out1) const noexcept;

  /// Encrypt eight independent 16-byte blocks in one call (128 bytes
  /// in/out; in == out allowed) — two CTR keystreams. The batch paths
  /// use this to keep eight AESENC chains in flight.
  void encrypt_blocks8(
      std::span<const std::uint8_t, kWideParallelBlocks * kBlockBytes> in,
      std::span<std::uint8_t, kWideParallelBlocks * kBlockBytes> out)
      const noexcept;

  /// Convenience: encrypt a Block value.
  Block encrypt(const Block& in) const noexcept;

  /// Convenience: decrypt a Block value.
  Block decrypt(const Block& in) const noexcept;

  /// Which kernel backend this instance bound to ("portable", "aes-ni").
  const char* backend_name() const noexcept;

 private:
  // 11 round keys of 16 bytes each (FIPS-197 byte layout, backend
  // independent).
  std::array<std::uint8_t, kBlockBytes*(kRounds + 1)> round_keys_{};
  const Aes128Ops* ops_;
};

}  // namespace secmem
