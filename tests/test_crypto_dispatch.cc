// Runtime crypto dispatch: FIPS-197 KATs against the hardware kernels,
// differential fuzz proving portable and accelerated backends are
// bit-identical at every layer (block cipher, GF(2^64), MAC, CTR
// keystream, batch APIs, whole-engine save images), and the selection
// policy itself.
//
// Hardware-path tests GTEST_SKIP on machines without AES-NI/PCLMULQDQ (or
// builds whose compiler couldn't emit them) — the differential claims are
// vacuous there, and the portable path is covered by the rest of the
// suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/cpu_features.h"
#include "crypto/crypto_backend.h"
#include "crypto/ctr_keystream.h"
#include "crypto/cw_mac.h"
#include "crypto/gf64.h"
#include "engine/secure_memory.h"

namespace secmem {
namespace {

/// Pins the process-wide backend policy for the enclosed scope; objects
/// constructed inside bind to the chosen kernels.
class BackendGuard {
 public:
  explicit BackendGuard(CryptoBackendChoice choice) {
    set_crypto_backend_choice(choice);
  }
  ~BackendGuard() { set_crypto_backend_choice(CryptoBackendChoice::kAuto); }
};

Aes128::Key random_key(Xoshiro256& rng) {
  Aes128::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  return key;
}

Aes128::Block random_block16(Xoshiro256& rng) {
  Aes128::Block block;
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
  return block;
}

DataBlock random_block64(Xoshiro256& rng) {
  DataBlock block;
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
  return block;
}

// ---------------------------------------------------------------------
// Selection policy.
// ---------------------------------------------------------------------

TEST(CryptoDispatch, PolicyOverrideBindsNewObjects) {
  const Aes128::Key key{};
  {
    BackendGuard guard(CryptoBackendChoice::kPortable);
    EXPECT_STREQ(Aes128(key).backend_name(), "portable");
    EXPECT_EQ(&aes128_ops(), &aes128_ops_portable());
    EXPECT_EQ(&gf64_ops(), &gf64_ops_portable());
    EXPECT_STREQ(crypto_backend_summary(), "portable");
  }
  if (aes128_ops_accelerated() != nullptr) {
    BackendGuard guard(CryptoBackendChoice::kAccelerated);
    EXPECT_STREQ(Aes128(key).backend_name(), "aes-ni");
  }
}

TEST(CryptoDispatch, AcceleratedAvailabilityTracksCpuid) {
  const CpuFeatures& cpu = cpu_features();
  // The ops can only exist when cpuid advertises the instructions; the
  // converse may fail if the compiler lacked the flags.
  if (aes128_ops_accelerated() != nullptr) {
    EXPECT_TRUE(cpu.aesni && cpu.sse41);
  }
  if (gf64_ops_accelerated() != nullptr) {
    EXPECT_TRUE(cpu.pclmul && cpu.sse41);
  }
}

// ---------------------------------------------------------------------
// FIPS-197 known-answer tests pinned to the AES-NI kernel.
// ---------------------------------------------------------------------

TEST(CryptoDispatch, AesNiFips197KnownAnswers) {
  const Aes128Ops* ni = aes128_ops_accelerated();
  if (ni == nullptr) GTEST_SKIP() << "no AES-NI backend on this host";
  // Appendix B.
  {
    const Aes128::Key key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                          0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    const Aes128::Block plain{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                              0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                              0x07, 0x34};
    const Aes128::Block expected{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                 0x19, 0x6a, 0x0b, 0x32};
    const Aes128 aes(key, *ni);
    EXPECT_STREQ(aes.backend_name(), "aes-ni");
    EXPECT_EQ(aes.encrypt(plain), expected);
    EXPECT_EQ(aes.decrypt(expected), plain);
  }
  // Appendix C.1.
  {
    const Aes128::Key key{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                          0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    const Aes128::Block plain{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
                              0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                              0xee, 0xff};
    const Aes128::Block expected{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                 0x70, 0xb4, 0xc5, 0x5a};
    const Aes128 aes(key, *ni);
    EXPECT_EQ(aes.encrypt(plain), expected);
    EXPECT_EQ(aes.decrypt(expected), plain);
  }
}

TEST(CryptoDispatch, KeyScheduleLayoutIdenticalAcrossBackends) {
  const Aes128Ops* ni = aes128_ops_accelerated();
  if (ni == nullptr) GTEST_SKIP() << "no AES-NI backend on this host";
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Aes128::Key key = random_key(rng);
    std::uint8_t portable_rk[176], ni_rk[176];
    aes128_ops_portable().expand_key(key.data(), portable_rk);
    ni->expand_key(key.data(), ni_rk);
    ASSERT_EQ(0, std::memcmp(portable_rk, ni_rk, sizeof(portable_rk)))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// Differential fuzz: portable vs accelerated, layer by layer.
// ---------------------------------------------------------------------

TEST(CryptoDispatch, DifferentialEncryptDecrypt) {
  const Aes128Ops* ni = aes128_ops_accelerated();
  if (ni == nullptr) GTEST_SKIP() << "no AES-NI backend on this host";
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const Aes128::Key key = random_key(rng);
    const Aes128 soft(key, aes128_ops_portable());
    const Aes128 hard(key, *ni);
    const Aes128::Block plain = random_block16(rng);
    const Aes128::Block ct = soft.encrypt(plain);
    ASSERT_EQ(ct, hard.encrypt(plain)) << "trial " << trial;
    ASSERT_EQ(soft.decrypt(ct), hard.decrypt(ct)) << "trial " << trial;
  }
}

TEST(CryptoDispatch, DifferentialEncryptBlocks4) {
  const Aes128Ops* ni = aes128_ops_accelerated();
  if (ni == nullptr) GTEST_SKIP() << "no AES-NI backend on this host";
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const Aes128::Key key = random_key(rng);
    const Aes128 soft(key, aes128_ops_portable());
    const Aes128 hard(key, *ni);
    DataBlock in = random_block64(rng);
    DataBlock out_soft, out_hard;
    soft.encrypt_blocks4(in, out_soft);
    hard.encrypt_blocks4(in, out_hard);
    ASSERT_EQ(out_soft, out_hard) << "trial " << trial;
    // The 4-wide kernel is four independent single-block encryptions.
    for (std::size_t chunk = 0; chunk < 4; ++chunk) {
      Aes128::Block one;
      std::memcpy(one.data(), in.data() + 16 * chunk, 16);
      ASSERT_EQ(0, std::memcmp(hard.encrypt(one).data(),
                               out_hard.data() + 16 * chunk, 16));
    }
  }
}

TEST(CryptoDispatch, DifferentialGf64) {
  const Gf64Ops* hw = gf64_ops_accelerated();
  if (hw == nullptr) GTEST_SKIP() << "no PCLMULQDQ backend on this host";
  Xoshiro256 rng(14);
  const std::uint64_t edges[] = {0,    1,    2,     0x1b, 1ULL << 63,
                                 ~0ULL, 0x8000000000000001ULL};
  for (const std::uint64_t a : edges) {
    for (const std::uint64_t b : edges) {
      const Clmul128 ps = clmul64_portable(a, b);
      const Clmul128 ph = hw->clmul(a, b);
      ASSERT_EQ(ps.lo, ph.lo);
      ASSERT_EQ(ps.hi, ph.hi);
      ASSERT_EQ(gf64_mul_portable(a, b), hw->mul(a, b));
    }
  }
  for (int trial = 0; trial < 5000; ++trial) {
    const std::uint64_t a = rng.next(), b = rng.next();
    const Clmul128 ps = clmul64_portable(a, b);
    const Clmul128 ph = hw->clmul(a, b);
    ASSERT_EQ(ps.lo, ph.lo) << a << "*" << b;
    ASSERT_EQ(ps.hi, ph.hi) << a << "*" << b;
    ASSERT_EQ(gf64_mul_portable(a, b), hw->mul(a, b)) << a << "*" << b;
  }
  // fold8: all-ones words and coefficients put every product's high half
  // in play, so the single aggregated reduction must absorb the XOR of
  // eight 127-bit products.
  const Gf64Ops& soft = gf64_ops_portable();
  std::uint64_t coeffs[8];
  std::uint8_t chunk[64];
  std::fill(std::begin(coeffs), std::end(coeffs), ~0ULL);
  std::fill(std::begin(chunk), std::end(chunk), 0xFF);
  ASSERT_EQ(soft.fold8(~0ULL, coeffs, chunk), hw->fold8(~0ULL, coeffs, chunk));
  ASSERT_EQ(soft.fold8(0, coeffs, chunk), hw->fold8(0, coeffs, chunk));
  for (int trial = 0; trial < 500; ++trial) {
    for (auto& c : coeffs) c = rng.next();
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t u = rng.next();
    ASSERT_EQ(soft.fold8(u, coeffs, chunk), hw->fold8(u, coeffs, chunk))
        << "trial " << trial;
  }
}

TEST(CryptoDispatch, DifferentialCtrKeystream) {
  const Aes128Ops* ni = aes128_ops_accelerated();
  if (ni == nullptr) GTEST_SKIP() << "no AES-NI backend on this host";
  Xoshiro256 rng(15);
  const Aes128::Key key = random_key(rng);
  const CtrKeystream soft(key, aes128_ops_portable());
  const CtrKeystream hard(key, *ni);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t addr = rng.next() & ~std::uint64_t{63};
    const std::uint64_t counter = rng.next() & ((1ULL << 56) - 1);
    DataBlock ks_soft, ks_hard;
    soft.generate(addr, counter, ks_soft);
    hard.generate(addr, counter, ks_hard);
    ASSERT_EQ(ks_soft, ks_hard) << "trial " << trial;
  }
}

TEST(CryptoDispatch, CtrBatchMatchesScalar) {
  Xoshiro256 rng(16);
  const Aes128::Key key = random_key(rng);
  const CtrKeystream ks(key);
  std::vector<std::uint64_t> addrs, counters;
  for (int i = 0; i < 37; ++i) {  // deliberately not a multiple of 4
    addrs.push_back(rng.next() & ~std::uint64_t{63});
    counters.push_back(rng.next() & ((1ULL << 56) - 1));
  }
  std::vector<DataBlock> batch(addrs.size());
  ks.generate_batch(addrs, counters, batch);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    DataBlock one;
    ks.generate(addrs[i], counters[i], one);
    ASSERT_EQ(batch[i], one) << i;
  }
  // crypt_batch == XOR of the same keystreams.
  std::vector<DataBlock> data(addrs.size());
  for (auto& block : data) block = random_block64(rng);
  std::vector<DataBlock> expected = data;
  for (std::size_t i = 0; i < addrs.size(); ++i)
    for (std::size_t j = 0; j < kBlockBytes; ++j)
      expected[i][j] ^= batch[i][j];
  ks.crypt_batch(addrs, counters, data);
  EXPECT_EQ(data, expected);
}

TEST(CryptoDispatch, DifferentialCwMac) {
  const Aes128Ops* ni = aes128_ops_accelerated();
  const Gf64Ops* hw = gf64_ops_accelerated();
  if (ni == nullptr || hw == nullptr)
    GTEST_SKIP() << "no accelerated backends on this host";
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    CwMacKey key{};
    key.hash_key = rng.next();
    key.pad_key = random_key(rng);
    const CwMac soft(key, aes128_ops_portable(), gf64_ops_portable());
    const CwMac hard(key, *ni, *hw);
    EXPECT_STREQ(soft.gf_backend_name(), "portable");
    EXPECT_STREQ(hard.gf_backend_name(), "pclmul");
    const std::uint64_t addr = rng.next() & ~std::uint64_t{63};
    const std::uint64_t counter = rng.next() & ((1ULL << 56) - 1);
    const std::uint64_t domain = rng.next() & ((1ULL << 56) - 1);
    // Every length up to four chunks plus one: each mix of whole 64-byte
    // chunks, whole tail words and a ragged last word the hash splits.
    std::uint8_t message[257];
    for (auto& b : message) b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t len = 0; len <= sizeof(message); ++len) {
      const std::span<const std::uint8_t> msg(message, len);
      ASSERT_EQ(soft.compute(addr, counter, msg),
                hard.compute(addr, counter, msg))
          << "trial " << trial << " len " << len;
      ASSERT_EQ(soft.compute_prf(domain, msg), hard.compute_prf(domain, msg))
          << "trial " << trial << " len " << len;
    }
    ASSERT_EQ(soft.pad_for(addr, counter), hard.pad_for(addr, counter));
    const DataBlock block = random_block64(rng);
    ASSERT_EQ(soft.block_polyhash(block), hard.block_polyhash(block));
    for (std::size_t w = 0; w < CwMac::kBlockWords; ++w)
      ASSERT_EQ(soft.word_coefficient(w), hard.word_coefficient(w)) << w;
  }

  CwMacKey key{};
  key.hash_key = rng.next();
  key.pad_key = random_key(rng);
  const CwMac soft(key, aes128_ops_portable(), gf64_ops_portable());
  const CwMac hard(key, *ni, *hw);
  // A delta command stream's size: thousands of whole chunks and a
  // ragged tail.
  std::vector<std::uint8_t> stream(192 * 1024 + 13);
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_EQ(soft.compute_prf(0x1234, stream), hard.compute_prf(0x1234, stream));
  ASSERT_EQ(soft.compute(0x40, 7, stream), hard.compute(0x40, 7, stream));

  // Both compute_batch overloads, over a count that is not a multiple of
  // the 8-wide pad kernel or the 32-entry pad chunk.
  constexpr std::size_t kCount = 41;
  std::vector<std::uint64_t> addrs, counters;
  std::vector<DataBlock> blocks;
  for (std::size_t i = 0; i < kCount; ++i) {
    addrs.push_back(rng.next() & ~std::uint64_t{63});
    counters.push_back(rng.next() & ((1ULL << 56) - 1));
    blocks.push_back(random_block64(rng));
  }
  std::vector<std::uint8_t> lines(kCount * kBlockBytes);
  for (std::size_t i = 0; i < kCount; ++i)
    std::memcpy(lines.data() + i * kBlockBytes, blocks[i].data(), kBlockBytes);
  std::vector<std::uint64_t> soft_tags(kCount), hard_tags(kCount),
      soft_line_tags(kCount), hard_line_tags(kCount);
  soft.compute_batch(addrs, counters, blocks, soft_tags);
  hard.compute_batch(addrs, counters, blocks, hard_tags);
  soft.compute_batch(addrs, counters, std::span<const std::uint8_t>(lines),
                     soft_line_tags);
  hard.compute_batch(addrs, counters, std::span<const std::uint8_t>(lines),
                     hard_line_tags);
  EXPECT_EQ(soft_tags, hard_tags);
  EXPECT_EQ(soft_line_tags, hard_line_tags);
  EXPECT_EQ(hard_tags, hard_line_tags);
  for (std::size_t i = 0; i < kCount; ++i)
    ASSERT_EQ(hard_tags[i], soft.compute_block(addrs[i], counters[i],
                                               blocks[i]))
        << i;
}

TEST(CryptoDispatch, CwMacBatchMatchesScalar) {
  Xoshiro256 rng(18);
  CwMacKey key{};
  key.hash_key = rng.next();
  key.pad_key = random_key(rng);
  const CwMac mac(key);
  std::vector<std::uint64_t> addrs, counters;
  std::vector<DataBlock> blocks;
  for (int i = 0; i < 41; ++i) {
    addrs.push_back(rng.next() & ~std::uint64_t{63});
    counters.push_back(rng.next() & ((1ULL << 56) - 1));
    blocks.push_back(random_block64(rng));
  }
  std::vector<std::uint64_t> pads(addrs.size()), tags(addrs.size());
  mac.pad_batch(addrs, counters, pads);
  mac.compute_batch(addrs, counters, blocks, tags);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    ASSERT_EQ(pads[i], mac.pad_for(addrs[i], counters[i])) << i;
    ASSERT_EQ(tags[i], mac.compute_block(addrs[i], counters[i], blocks[i]))
        << i;
  }
}

TEST(CryptoDispatch, BlockPolyhashConsistentWithTags) {
  // tag == (block_polyhash ^ pad) & kMacMask — the identity the
  // incremental flip-and-check path is built on.
  Xoshiro256 rng(19);
  CwMacKey key{};
  key.hash_key = rng.next();
  key.pad_key = random_key(rng);
  const CwMac mac(key);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t addr = rng.next() & ~std::uint64_t{63};
    const std::uint64_t counter = rng.next() & ((1ULL << 56) - 1);
    const DataBlock block = random_block64(rng);
    const std::uint64_t pad = mac.pad_for(addr, counter);
    EXPECT_EQ(mac.compute_block(addr, counter, block),
              (mac.block_polyhash(block) ^ pad) & kMacMask);
  }
}

// ---------------------------------------------------------------------
// End to end: the whole engine produces bit-identical off-chip state on
// both backends.
// ---------------------------------------------------------------------

TEST(CryptoDispatch, EngineSaveImagesIdenticalAcrossBackends) {
  if (aes128_ops_accelerated() == nullptr ||
      gf64_ops_accelerated() == nullptr)
    GTEST_SKIP() << "no accelerated backends on this host";
  auto run = [](CryptoBackendChoice choice) {
    BackendGuard guard(choice);
    SecureMemoryConfig config;
    config.size_bytes = 64 * 1024;
    SecureMemory memory(config);
    Xoshiro256 rng(20);
    for (int i = 0; i < 300; ++i) {
      DataBlock block;
      for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
      EXPECT_EQ(memory.write_block(rng.next_below(memory.num_blocks()), block), Status::kOk);
    }
    std::ostringstream image;
    EXPECT_EQ(memory.save(image), Status::kOk);
    return image.str();
  };
  const std::string portable_image = run(CryptoBackendChoice::kPortable);
  const std::string accel_image = run(CryptoBackendChoice::kAccelerated);
  ASSERT_EQ(portable_image.size(), accel_image.size());
  EXPECT_EQ(portable_image, accel_image);
}

TEST(CryptoDispatch, EngineBatchIoMatchesScalarAcrossBackends) {
  // write_blocks/read_blocks (batched kernels) against write_block/
  // read_block (scalar) on both backends: same plaintexts back, same
  // save image afterwards.
  for (const CryptoBackendChoice choice :
       {CryptoBackendChoice::kPortable, CryptoBackendChoice::kAccelerated}) {
    BackendGuard guard(choice);
    SecureMemoryConfig config;
    config.size_bytes = 64 * 1024;
    SecureMemory batch_engine(config);
    SecureMemory scalar_engine(config);
    Xoshiro256 rng(26);
    std::vector<BlockWrite> writes;
    std::vector<std::uint64_t> blocks;
    for (int i = 0; i < 200; ++i) {
      BlockWrite w;
      w.block = rng.next_below(batch_engine.num_blocks());
      for (auto& b : w.data) b = static_cast<std::uint8_t>(rng.next());
      writes.push_back(w);
      blocks.push_back(w.block);
    }
    EXPECT_EQ(batch_engine.write_blocks(writes), Status::kOk);
    for (const BlockWrite& w : writes)
      EXPECT_EQ(scalar_engine.write_block(w.block, w.data), Status::kOk);

    const auto batch_results = batch_engine.read_blocks(blocks);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const auto scalar_result = scalar_engine.read_block(blocks[i]);
      ASSERT_EQ(batch_results[i].status, scalar_result.status) << i;
      ASSERT_EQ(batch_results[i].data, scalar_result.data) << i;
    }

    std::ostringstream batch_image, scalar_image;
    EXPECT_EQ(batch_engine.save(batch_image), Status::kOk);
    EXPECT_EQ(scalar_engine.save(scalar_image), Status::kOk);
    EXPECT_EQ(batch_image.str(), scalar_image.str());
  }
}

TEST(CryptoDispatch, EngineBatchReadsOfDamagedBlocksMatchScalar) {
  // read_blocks against read_block on damaged blocks: every fault the
  // verified read handles (ciphertext flips within and beyond the
  // flip-and-check budget, a MAC-lane flip, a tampered counter line) must
  // give the same status, plaintext, flip-and-check work and counters
  // whether the block is read alone or inside a batch.
  for (const CryptoBackendChoice choice :
       {CryptoBackendChoice::kPortable, CryptoBackendChoice::kAccelerated}) {
    for (const MacPlacement placement :
         {MacPlacement::kEccLane, MacPlacement::kSeparate}) {
      SCOPED_TRACE(placement == MacPlacement::kEccLane ? "ecc-lane"
                                                       : "separate");
      BackendGuard guard(choice);
      SecureMemoryConfig config;
      config.size_bytes = 64 * 1024;
      config.mac_placement = placement;
      SecureMemory batch_engine(config);
      SecureMemory scalar_engine(config);
      Xoshiro256 rng(31);
      for (std::uint64_t b = 0; b < batch_engine.num_blocks(); b += 3) {
        const DataBlock data = random_block64(rng);
        ASSERT_EQ(batch_engine.write_block(b, data), Status::kOk);
        ASSERT_EQ(scalar_engine.write_block(b, data), Status::kOk);
      }

      // Damaged blocks; the counter line is the one holding block 600.
      const std::uint64_t one_bit = 10, two_bit = 20, three_bit = 30,
                          lane_bit = 40, tampered = 600;
      for (SecureMemory* m : {&batch_engine, &scalar_engine}) {
        auto view = m->untrusted();
        view.flip_ciphertext_bit(one_bit, 250);
        view.flip_ciphertext_bit(two_bit, 8);
        view.flip_ciphertext_bit(two_bit, 55);
        view.flip_ciphertext_bit(three_bit, 1);
        view.flip_ciphertext_bit(three_bit, 2);
        view.flip_ciphertext_bit(three_bit, 3);
        view.flip_lane_bit(lane_bit, 20);
        view.flip_counter_bit(m->counters().storage_line_of(tampered), 13);
        m->reset_stats();
      }

      std::vector<std::uint64_t> blocks = {one_bit, 0,   two_bit, three_bit,
                                           lane_bit, 3,  tampered,
                                           tampered + 1, one_bit, 5};
      for (int i = 0; i < 40; ++i)
        blocks.push_back(rng.next_below(batch_engine.num_blocks()));
      const auto batch_results = batch_engine.read_blocks(blocks);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        const ReadResult scalar = scalar_engine.read_block(blocks[i]);
        ASSERT_EQ(batch_results[i].status, scalar.status) << "block "
                                                          << blocks[i];
        ASSERT_EQ(batch_results[i].data, scalar.data) << "block " << blocks[i];
        ASSERT_EQ(batch_results[i].mac_evaluations, scalar.mac_evaluations)
            << "block " << blocks[i];
      }
      EXPECT_NE(batch_results[0].status, Status::kOk);
      EXPECT_EQ(batch_results[6].status, Status::kCounterTampered);

      const EngineStats batch = batch_engine.stats();
      const EngineStats scalar = scalar_engine.stats();
      EXPECT_EQ(batch.reads, scalar.reads);
      EXPECT_EQ(batch.corrected_data, scalar.corrected_data);
      EXPECT_EQ(batch.corrected_mac_field, scalar.corrected_mac_field);
      EXPECT_EQ(batch.corrected_word, scalar.corrected_word);
      EXPECT_EQ(batch.integrity_violations, scalar.integrity_violations);
      EXPECT_EQ(batch.counter_tampers, scalar.counter_tampers);
      EXPECT_EQ(batch.mac_evaluations, scalar.mac_evaluations);
    }
  }
}

}  // namespace
}  // namespace secmem