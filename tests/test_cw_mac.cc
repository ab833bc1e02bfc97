#include "crypto/cw_mac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "common/rng.h"
#include "crypto/crypto_backend.h"

namespace secmem {
namespace {

CwMacKey test_key() {
  CwMacKey key{};
  key.hash_key = 0x8a5cd789635d2dffULL;
  for (int i = 0; i < 16; ++i)
    key.pad_key[i] = static_cast<std::uint8_t>(0xA0 + i);
  return key;
}

DataBlock pattern_block(std::uint8_t seed) {
  DataBlock b{};
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  return b;
}

// Known-answer values, computed with a plain word-by-word Horner
// evaluation (one multiply-by-h per 64-bit word). They pin the off-chip
// tag format independently of any backend: a hash change that is wrong
// on the portable and the PCLMULQDQ path alike still fails here. Message byte i is
// (i * 0x9D + 0x3B) mod 256; compute() is bound to (addr 0x1240,
// counter 0x2a), compute_prf() to domain 0x5eed, and block_polyhash()
// hashes the first 64 message bytes.
struct CwMacKat {
  std::size_t len;
  std::uint64_t compute;
  std::uint64_t prf;
};

struct CwMacKatKey {
  CwMacKey key;
  std::uint64_t block_polyhash;
  std::array<CwMacKat, 5> rows;
};

std::vector<CwMacKatKey> kat_keys() {
  CwMacKey k1{};
  k1.hash_key = 0x0123456789abcdefULL;
  for (int i = 0; i < 16; ++i)
    k1.pad_key[i] = static_cast<std::uint8_t>(0x3C * i + 1);
  return {
      {test_key(),
       0xb590aa5c4c140ad2ULL,
       {{{0, 0x00ad9854e9652dc7ULL, 0x2dac86942a1489aeULL},
         {7, 0x00c94dcb227f8ec2ULL, 0x61cd4df02fbdb3e8ULL},
         {64, 0x003d3208a5712715ULL, 0x83e41a0d5bd93038ULL},
         {200, 0x00bdf608d0467c24ULL, 0x016067bdb62994b2ULL},
         {4099, 0x00355c565d2b4605ULL, 0xc8cc005c36dec32aULL}}}},
      {k1,
       0x614475f6d5b5a2ecULL,
       {{{0, 0x002da5582afccde1ULL, 0xfa9f3c4175037db7ULL},
         {7, 0x000dfa24e540b05eULL, 0x46b24273bb50a361ULL},
         {64, 0x0069d0aeff496f0dULL, 0x4618c059d70107acULL},
         {200, 0x008844a98bf64f35ULL, 0xafad857b030cabebULL},
         {4099, 0x000ac729162a1372ULL, 0xff01497d326c5c2eULL}}}},
  };
}

TEST(CwMac, KnownAnswersOnEveryBackend) {
  std::vector<std::uint8_t> msg(4099);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 0x9D + 0x3B);
  DataBlock block;
  std::copy_n(msg.begin(), block.size(), block.begin());

  std::vector<std::pair<const Aes128Ops*, const Gf64Ops*>> backends = {
      {&aes128_ops_portable(), &gf64_ops_portable()}};
  if (aes128_ops_accelerated() != nullptr &&
      gf64_ops_accelerated() != nullptr)
    backends.emplace_back(aes128_ops_accelerated(), gf64_ops_accelerated());

  for (const auto& [aes, gf] : backends) {
    for (const CwMacKatKey& k : kat_keys()) {
      const CwMac mac(k.key, *aes, *gf);
      EXPECT_EQ(mac.block_polyhash(block), k.block_polyhash)
          << mac.gf_backend_name();
      for (const CwMacKat& row : k.rows) {
        const std::span<const std::uint8_t> m(msg.data(), row.len);
        EXPECT_EQ(mac.compute(0x1240, 0x2a, m), row.compute)
            << mac.gf_backend_name() << " len " << row.len;
        EXPECT_EQ(mac.compute_prf(0x5eed, m), row.prf)
            << mac.gf_backend_name() << " len " << row.len;
      }
    }
  }
}

TEST(CwMac, Deterministic) {
  CwMac mac(test_key());
  const DataBlock block = pattern_block(1);
  EXPECT_EQ(mac.compute_block(0x40, 3, block),
            mac.compute_block(0x40, 3, block));
}

TEST(CwMac, TagFitsIn56Bits) {
  CwMac mac(test_key());
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    const DataBlock block = pattern_block(static_cast<std::uint8_t>(i));
    const std::uint64_t tag = mac.compute_block(rng.next(), rng.next(), block);
    EXPECT_EQ(tag & ~kMacMask, 0u);
  }
}

TEST(CwMac, SensitiveToEveryDataBit) {
  CwMac mac(test_key());
  DataBlock block = pattern_block(9);
  const std::uint64_t base = mac.compute_block(0x80, 5, block);
  // Flip each byte's LSB and a sample of other bits.
  for (std::size_t bit = 0; bit < 512; bit += 17) {
    block[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(mac.compute_block(0x80, 5, block), base) << "bit " << bit;
    block[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(CwMac, BoundToAddress) {
  CwMac mac(test_key());
  const DataBlock block = pattern_block(2);
  EXPECT_NE(mac.compute_block(0x40, 3, block),
            mac.compute_block(0x80, 3, block));
}

TEST(CwMac, BoundToCounter) {
  // The Bonsai property: same data, same address, different counter ->
  // different tag, so replaying stale data requires a stale counter.
  CwMac mac(test_key());
  const DataBlock block = pattern_block(3);
  EXPECT_NE(mac.compute_block(0x40, 3, block),
            mac.compute_block(0x40, 4, block));
}

TEST(CwMac, VerifyAcceptsGenuineRejectsForged) {
  CwMac mac(test_key());
  DataBlock block = pattern_block(4);
  const std::uint64_t tag = mac.compute_block(0xC0, 9, block);
  EXPECT_TRUE(mac.verify(0xC0, 9, block, tag));
  EXPECT_FALSE(mac.verify(0xC0, 9, block, tag ^ 1));
  block[10] ^= 0x40;
  EXPECT_FALSE(mac.verify(0xC0, 9, block, tag));
}

TEST(CwMac, KeysMatter) {
  CwMacKey k2 = test_key();
  k2.hash_key ^= 0xdeadbeef;
  const DataBlock block = pattern_block(5);
  EXPECT_NE(CwMac(test_key()).compute_block(0, 0, block),
            CwMac(k2).compute_block(0, 0, block));

  CwMacKey k3 = test_key();
  k3.pad_key[0] ^= 1;
  EXPECT_NE(CwMac(test_key()).compute_block(0, 0, block),
            CwMac(k3).compute_block(0, 0, block));
}

TEST(CwMac, VariableLengthMessages) {
  CwMac mac(test_key());
  const std::vector<std::uint8_t> msg(100, 0xAB);
  std::set<std::uint64_t> tags;
  for (std::size_t len = 0; len <= 100; len += 9) {
    tags.insert(
        mac.compute(0, 0, std::span<const std::uint8_t>(msg.data(), len)));
  }
  EXPECT_EQ(tags.size(), 12u);  // all lengths produce distinct tags
}

TEST(CwMac, TrailingZeroExtensionDetected) {
  // "abc" and "abc\0" must differ (length is absorbed into the hash).
  CwMac mac(test_key());
  const std::uint8_t m1[] = {'a', 'b', 'c'};
  const std::uint8_t m2[] = {'a', 'b', 'c', 0};
  EXPECT_NE(mac.compute(1, 1, m1), mac.compute(1, 1, m2));
}

TEST(CwMac, NonceReuseLeaksHashDifference) {
  // WHY counter-mode freshness is non-negotiable for Carter-Wegman MACs:
  // tags under the SAME (addr, counter) share the AES pad, so
  //   tag(m1) XOR tag(m2) == polyhash(m1) XOR polyhash(m2)   (mod trunc)
  // — the pad cancels and the keyed-hash difference leaks. With fresh
  // counters the pads differ and the XOR is unpredictable.
  CwMac mac(test_key());
  const DataBlock m1 = pattern_block(1);
  const DataBlock m2 = pattern_block(2);

  const std::uint64_t t1 = mac.compute_block(0x40, 9, m1);
  const std::uint64_t t2 = mac.compute_block(0x40, 9, m2);  // same nonce!
  const std::uint64_t pad = mac.pad_for(0x40, 9);
  // Reconstruct the hash difference from tags alone:
  const std::uint64_t leaked = (t1 ^ t2) & kMacMask;
  const std::uint64_t actual =
      (mac.compute_with_pad(pad, m1) ^ mac.compute_with_pad(pad, m2)) &
      kMacMask;
  EXPECT_EQ(leaked, actual) << "pad failed to cancel (test is wrong)";

  // With distinct counters the same XOR no longer matches — the leak
  // needs genuine nonce reuse.
  const std::uint64_t t2_fresh = mac.compute_block(0x40, 10, m2);
  EXPECT_NE((t1 ^ t2_fresh) & kMacMask, actual);
}

TEST(CwMac, PrfModeDeterministicAndDomainSeparated) {
  CwMac mac(test_key());
  const DataBlock m = pattern_block(3);
  EXPECT_EQ(mac.compute_prf(1, m), mac.compute_prf(1, m));
  EXPECT_NE(mac.compute_prf(1, m), mac.compute_prf(2, m));
  // Disjoint from the XOR-pad tag family over the same bytes: the AES
  // inputs differ in the 0x5A/0xA5 separator byte.
  EXPECT_NE(mac.compute_prf(1, m), mac.compute_block(1, 0, m));
}

TEST(CwMac, PrfModeSensitiveToMessageAndLength) {
  CwMac mac(test_key());
  DataBlock m = pattern_block(4);
  const std::uint64_t base = mac.compute_prf(7, m);
  for (std::size_t bit = 0; bit < 512; bit += 31) {
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(mac.compute_prf(7, m), base) << "bit " << bit;
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  const std::uint8_t s1[] = {'a', 'b', 'c'};
  const std::uint8_t s2[] = {'a', 'b', 'c', 0};
  EXPECT_NE(mac.compute_prf(7, s1), mac.compute_prf(7, s2));
}

TEST(CwMac, PrfPartsMatchConcatenationOnEveryBackend) {
  // Every 2- and 3-way split of every 0..200-byte message, empty parts
  // included: the parts overload must hash exactly the concatenation,
  // whatever word or 64-byte chunk boundary a cut lands on.
  std::vector<std::uint8_t> msg(200);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 0x9D + 0x3B);
  std::vector<std::pair<const Aes128Ops*, const Gf64Ops*>> backends = {
      {&aes128_ops_portable(), &gf64_ops_portable()}};
  if (aes128_ops_accelerated() != nullptr &&
      gf64_ops_accelerated() != nullptr)
    backends.emplace_back(aes128_ops_accelerated(), gf64_ops_accelerated());

  for (const auto& [aes, gf] : backends) {
    const CwMac mac(test_key(), *aes, *gf);
    for (std::size_t len = 0; len <= msg.size(); ++len) {
      const std::span<const std::uint8_t> m(msg.data(), len);
      const std::uint64_t want = mac.compute_prf(0x5eed, m);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i <= len; ++i) {
        const std::array<std::span<const std::uint8_t>, 2> two = {
            m.first(i), m.subspan(i)};
        mismatches += mac.compute_prf(0x5eed, two) != want;
        for (std::size_t j = i; j <= len; ++j) {
          const std::array<std::span<const std::uint8_t>, 3> three = {
              m.first(i), m.subspan(i, j - i), m.subspan(j)};
          mismatches += mac.compute_prf(0x5eed, three) != want;
        }
      }
      EXPECT_EQ(mismatches, 0u) << mac.gf_backend_name() << " len " << len;
    }
  }
}

TEST(CwMac, PrfModeDomainReuseDoesNotLeakHashDifference) {
  // The snapshot layer MACs MANY messages under one fixed domain —
  // exactly the pad-reuse setting NonceReuseLeaksHashDifference above
  // shows is fatal for the XOR construction (tag XORs hand out hash-key
  // equations). In PRF mode the hash output is encrypted, not masked,
  // so the tag difference never equals the hash difference.
  CwMac mac(test_key());
  Xoshiro256 rng(99);
  for (int i = 0; i < 64; ++i) {
    DataBlock m1, m2;
    for (auto& b : m1) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : m2) b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t hash_diff =
        mac.block_polyhash(m1) ^ mac.block_polyhash(m2);
    EXPECT_NE(mac.compute_prf(5, m1) ^ mac.compute_prf(5, m2), hash_diff);
  }
}

TEST(CwMac, CollisionRateSanity) {
  // 56-bit tags over random blocks should essentially never collide in a
  // small sample.
  CwMac mac(test_key());
  Xoshiro256 rng(77);
  std::set<std::uint64_t> tags;
  for (int i = 0; i < 2000; ++i) {
    DataBlock block;
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
    tags.insert(mac.compute_block(0, 0, block));
  }
  EXPECT_EQ(tags.size(), 2000u);
}

}  // namespace
}  // namespace secmem
