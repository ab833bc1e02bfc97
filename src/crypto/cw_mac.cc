#include "crypto/cw_mac.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"
#include "crypto/crypto_backend.h"
#include "crypto/gf64.h"

namespace secmem {

namespace {

// Pad tweak: [ addr(8B) | counter(7B) | 0xA5 ]. The final byte domain-
// separates MAC pads from the 0..3 chunk bytes of keystream tweaks.
void fill_pad_tweak(std::uint64_t addr, std::uint64_t counter,
                    std::uint8_t* tweak) noexcept {
  store_le64(tweak, addr);
  for (int i = 0; i < 7; ++i)
    tweak[8 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
  tweak[15] = 0xA5;
}

}  // namespace

CwMac::CwMac(const CwMacKey& key) noexcept
    : CwMac(key, aes128_ops(), gf64_ops()) {}

CwMac::CwMac(const CwMacKey& key, const Aes128Ops& aes_ops,
             const Gf64Ops& gf_ops) noexcept
    : h_(key.hash_key | 1),  // avoid the degenerate h = 0 hash
      gf_(&gf_ops),
      mul_h_(gf_ == &gf64_ops_portable()
                 ? std::make_unique<Gf64MulTable>(h_)
                 : nullptr),
      pad_(key.pad_key, aes_ops) {
  // word_coeff_[j] = h^(8-j): coefficient of word j in the block hash.
  std::uint64_t p = h_;
  for (std::size_t j = kBlockWords; j-- > 0;) {
    word_coeff_[j] = p;
    p = gf_->mul(p, h_);
  }
}

const char* CwMac::gf_backend_name() const noexcept { return gf_->name; }

std::uint64_t CwMac::mul_h(std::uint64_t x) const noexcept {
  return mul_h_ ? mul_h_->mul(x) : gf_->mul(x, h_);
}

std::uint64_t CwMac::fold8(std::uint64_t u,
                           const std::uint8_t* chunk) const noexcept {
  if (!mul_h_) return gf_->fold8(u, word_coeff_.data(), chunk);
  for (std::size_t j = 0; j < kBlockWords; ++j)
    u = mul_h_->mul(u ^ load_le64(chunk + 8 * j));
  return u;
}

std::uint64_t CwMac::polyhash(
    std::span<const std::uint8_t> message) const noexcept {
  // Horner evaluation over the 64-bit words m_0..m_{n-1} (the last one
  // zero-padded), then the bit length:
  //   H = m_0*h^n + m_1*h^(n-1) + ... + m_{n-1}*h  +  8*len
  // all in GF(2^64). Absorbing the length defends against extension-style
  // ambiguity between messages that differ only in trailing zeros. The
  // state u carries one factor of h already: u <- (u + m)*h per word,
  // and fold8 takes eight such steps per 64-byte chunk.
  const std::uint8_t* data = message.data();
  const std::size_t size = message.size();
  std::uint64_t u = 0;
  std::size_t i = 0;
  for (; i + kBlockBytes <= size; i += kBlockBytes) u = fold8(u, data + i);
  for (; i + 8 <= size; i += 8) u = mul_h(u ^ load_le64(data + i));
  if (i < size) {
    std::uint64_t last = 0;
    for (std::size_t j = 0; i + j < size; ++j)
      last |= std::uint64_t{data[i + j]} << (8 * j);
    u = mul_h(u ^ last);
  }
  return u ^ (static_cast<std::uint64_t>(size) * 8);
}

std::uint64_t CwMac::block_polyhash(const DataBlock& block) const noexcept {
  return polyhash(std::span<const std::uint8_t>(block));
}

std::uint64_t CwMac::pad_for(std::uint64_t addr,
                             std::uint64_t counter) const noexcept {
  Aes128::Block tweak{};
  fill_pad_tweak(addr, counter, tweak.data());
  const Aes128::Block pad_block = pad_.encrypt(tweak);
  return load_le64(pad_block.data());
}

std::uint64_t CwMac::keystream_and_pad(
    const CtrKeystream& keystream, std::uint64_t addr, std::uint64_t counter,
    std::span<std::uint8_t, kBlockBytes> ks_out) const noexcept {
  Aes128::Block tweak{};
  fill_pad_tweak(addr, counter, tweak.data());
  Aes128::Block pad_block;
  keystream.generate_with(addr, counter, ks_out, pad_, tweak, pad_block);
  return load_le64(pad_block.data());
}

void CwMac::pad_batch(std::span<const std::uint64_t> addrs,
                      std::span<const std::uint64_t> counters,
                      std::span<std::uint64_t> pads) const noexcept {
  assert(addrs.size() == counters.size() && addrs.size() == pads.size());
  constexpr std::size_t kLane = Aes128::kWideParallelBlocks;
  std::size_t i = 0;
  std::array<std::uint8_t, kLane * Aes128::kBlockBytes> tweaks{};
  std::array<std::uint8_t, kLane * Aes128::kBlockBytes> enc;
  for (; i + kLane <= addrs.size(); i += kLane) {
    for (std::size_t l = 0; l < kLane; ++l)
      fill_pad_tweak(addrs[i + l], counters[i + l],
                     tweaks.data() + l * Aes128::kBlockBytes);
    pad_.encrypt_blocks8(tweaks, enc);
    for (std::size_t l = 0; l < kLane; ++l)
      pads[i + l] = load_le64(enc.data() + l * Aes128::kBlockBytes);
  }
  for (; i < addrs.size(); ++i) pads[i] = pad_for(addrs[i], counters[i]);
}

std::uint64_t CwMac::compute(
    std::uint64_t addr, std::uint64_t counter,
    std::span<const std::uint8_t> message) const noexcept {
  return compute_with_pad(pad_for(addr, counter), message);
}

std::uint64_t CwMac::prf_of_hash(std::uint64_t domain,
                                 std::uint64_t hash) const noexcept {
  // PRF tweak: [ hash(8B) | domain(7B) | 0x5A ]. The final byte
  // domain-separates PRF inputs from pad tweaks (0xA5) and keystream
  // chunk bytes (0..3); the hash rides INSIDE the AES input, so the
  // tag is a PRP image of the message digest, not an XOR mask of it.
  assert(domain < (std::uint64_t{1} << 56));
  Aes128::Block in{};
  store_le64(in.data(), hash);
  for (int i = 0; i < 7; ++i)
    in[8 + i] = static_cast<std::uint8_t>(domain >> (8 * i));
  in[15] = 0x5A;
  return load_le64(pad_.encrypt(in).data());
}

std::uint64_t CwMac::compute_prf(
    std::uint64_t domain,
    std::span<const std::uint8_t> message) const noexcept {
  return prf_of_hash(domain, polyhash(message));
}

std::uint64_t CwMac::compute_prf(
    std::uint64_t domain,
    std::span<const std::span<const std::uint8_t>> parts) const noexcept {
  // polyhash over the concatenation, streamed: the Horner chain only
  // sees 64-bit words of the whole message, so a word straddling two
  // parts is assembled in `carry` and everything between runs through
  // the same fold8 / mul_h steps polyhash takes. fold8 is eight Horner
  // steps bit for bit, so chunking at part boundaries instead of at
  // message offsets leaves the hash unchanged.
  std::uint64_t u = 0;
  std::uint64_t carry = 0;
  std::size_t carry_len = 0;  // bytes of the current word held in carry
  std::size_t total = 0;
  for (const std::span<const std::uint8_t> part : parts) {
    const std::uint8_t* data = part.data();
    std::size_t size = part.size();
    total += size;
    while (carry_len != 0 && size != 0) {
      carry |= std::uint64_t{*data++} << (8 * carry_len);
      --size;
      if (++carry_len == 8) {
        u = mul_h(u ^ carry);
        carry = 0;
        carry_len = 0;
      }
    }
    std::size_t i = 0;
    for (; i + kBlockBytes <= size; i += kBlockBytes) u = fold8(u, data + i);
    for (; i + 8 <= size; i += 8) u = mul_h(u ^ load_le64(data + i));
    for (; i < size; ++i)
      carry |= std::uint64_t{data[i]} << (8 * carry_len++);
  }
  if (carry_len != 0) u = mul_h(u ^ carry);
  return prf_of_hash(domain, u ^ (static_cast<std::uint64_t>(total) * 8));
}

void CwMac::compute_batch(std::span<const std::uint64_t> addrs,
                          std::span<const std::uint64_t> counters,
                          std::span<const DataBlock> blocks,
                          std::span<std::uint64_t> tags) const noexcept {
  assert(addrs.size() == counters.size() && addrs.size() == blocks.size() &&
         addrs.size() == tags.size());
  constexpr std::size_t kChunk = 32;
  std::array<std::uint64_t, kChunk> pads;
  for (std::size_t base = 0; base < addrs.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, addrs.size() - base);
    pad_batch(addrs.subspan(base, n), counters.subspan(base, n),
              std::span<std::uint64_t>(pads.data(), n));
    for (std::size_t i = 0; i < n; ++i)
      tags[base + i] = (block_polyhash(blocks[base + i]) ^ pads[i]) & kMacMask;
  }
}

void CwMac::compute_batch(std::span<const std::uint64_t> addrs,
                          std::span<const std::uint64_t> counters,
                          std::span<const std::uint8_t> lines,
                          std::span<std::uint64_t> tags) const noexcept {
  assert(addrs.size() == counters.size() && addrs.size() == tags.size() &&
         lines.size() == addrs.size() * kBlockBytes);
  constexpr std::size_t kChunk = 32;
  std::array<std::uint64_t, kChunk> pads;
  for (std::size_t base = 0; base < addrs.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, addrs.size() - base);
    pad_batch(addrs.subspan(base, n), counters.subspan(base, n),
              std::span<std::uint64_t>(pads.data(), n));
    for (std::size_t i = 0; i < n; ++i)
      tags[base + i] =
          (polyhash(lines.subspan((base + i) * kBlockBytes, kBlockBytes)) ^
           pads[i]) &
          kMacMask;
  }
}

}  // namespace secmem
