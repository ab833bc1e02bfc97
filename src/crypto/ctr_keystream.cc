#include "crypto/ctr_keystream.h"

#include <cassert>
#include <cstring>

#include "common/bitops.h"

namespace secmem {

namespace {

// Tweak block: [ addr(8B) | counter(7B) | chunk(1B) ].
// The counter is at most 56 bits in every scheme we model (paper §2.1),
// so 7 bytes hold it exactly; the chunk index distinguishes the four
// 16-byte AES blocks inside one 64-byte keystream.
void fill_tweaks(std::uint64_t block_addr, std::uint64_t counter,
                 std::uint8_t* tweaks) noexcept {
  static_assert(kBlockBytes ==
                Aes128::kParallelBlocks * Aes128::kBlockBytes);
  store_le64(tweaks, block_addr);
  for (int i = 0; i < 7; ++i)
    tweaks[8 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
  tweaks[15] = 0;
  for (std::size_t chunk = 1; chunk < Aes128::kParallelBlocks; ++chunk) {
    std::uint8_t* t = tweaks + chunk * Aes128::kBlockBytes;
    std::memcpy(t, tweaks, Aes128::kBlockBytes);
    t[15] = static_cast<std::uint8_t>(chunk);
  }
}

}  // namespace

void CtrKeystream::generate(
    std::uint64_t block_addr, std::uint64_t counter,
    std::span<std::uint8_t, kBlockBytes> out) const noexcept {
  DataBlock tweaks;
  fill_tweaks(block_addr, counter, tweaks.data());
  aes_.encrypt_blocks4(tweaks, out);
}

void CtrKeystream::generate_with(
    std::uint64_t block_addr, std::uint64_t counter,
    std::span<std::uint8_t, kBlockBytes> out, const Aes128& second,
    std::span<const std::uint8_t, Aes128::kBlockBytes> second_in,
    std::span<std::uint8_t, Aes128::kBlockBytes> second_out) const noexcept {
  DataBlock tweaks;
  fill_tweaks(block_addr, counter, tweaks.data());
  aes_.encrypt_blocks4_1(tweaks, out, second, second_in, second_out);
}

void CtrKeystream::generate_batch(std::span<const std::uint64_t> addrs,
                                  std::span<const std::uint64_t> counters,
                                  std::span<DataBlock> out) const noexcept {
  assert(addrs.size() == counters.size() && addrs.size() == out.size());
  // Pairs of keystreams run through the 8-wide kernel (eight AESENC
  // chains in flight — see Aes128::kWideParallelBlocks); a single
  // straggler takes the 4-wide path. Bit-identical to per-block
  // generate(): the tweak schedule is unchanged, only the interleave is.
  std::size_t i = 0;
  std::array<std::uint8_t, 2 * kBlockBytes> tweaks;
  std::array<std::uint8_t, 2 * kBlockBytes> ks;
  for (; i + 2 <= addrs.size(); i += 2) {
    fill_tweaks(addrs[i], counters[i], tweaks.data());
    fill_tweaks(addrs[i + 1], counters[i + 1], tweaks.data() + kBlockBytes);
    aes_.encrypt_blocks8(tweaks, ks);
    std::memcpy(out[i].data(), ks.data(), kBlockBytes);
    std::memcpy(out[i + 1].data(), ks.data() + kBlockBytes, kBlockBytes);
  }
  for (; i < addrs.size(); ++i) generate(addrs[i], counters[i], out[i]);
}

void CtrKeystream::crypt(std::uint64_t block_addr, std::uint64_t counter,
                         std::span<std::uint8_t, kBlockBytes> data)
    const noexcept {
  DataBlock ks;
  generate(block_addr, counter, ks);
  for (std::size_t i = 0; i < kBlockBytes; ++i) data[i] ^= ks[i];
}

void CtrKeystream::crypt_batch(std::span<const std::uint64_t> addrs,
                               std::span<const std::uint64_t> counters,
                               std::span<DataBlock> blocks) const noexcept {
  assert(addrs.size() == counters.size() && addrs.size() == blocks.size());
  std::size_t i = 0;
  std::array<std::uint8_t, 2 * kBlockBytes> tweaks;
  std::array<std::uint8_t, 2 * kBlockBytes> ks;
  for (; i + 2 <= addrs.size(); i += 2) {
    fill_tweaks(addrs[i], counters[i], tweaks.data());
    fill_tweaks(addrs[i + 1], counters[i + 1], tweaks.data() + kBlockBytes);
    aes_.encrypt_blocks8(tweaks, ks);
    for (std::size_t b = 0; b < kBlockBytes; ++b) blocks[i][b] ^= ks[b];
    for (std::size_t b = 0; b < kBlockBytes; ++b)
      blocks[i + 1][b] ^= ks[kBlockBytes + b];
  }
  for (; i < addrs.size(); ++i) crypt(addrs[i], counters[i], blocks[i]);
}

}  // namespace secmem
