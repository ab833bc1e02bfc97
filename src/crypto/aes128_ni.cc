// AES-NI kernels (this translation unit alone is compiled with
// -maes -msse4.1; see src/crypto/CMakeLists.txt — the rest of the tree
// stays at the baseline ISA, and runtime cpuid gates every use).
//
// The key schedule uses AESKEYGENASSIST and produces the exact FIPS-197
// byte layout of the portable expansion, so schedules are interchangeable
// between backends. encrypt4 interleaves four independent AESENC chains:
// AESENC has multi-cycle latency but single-cycle throughput, so four
// in-flight blocks — one 64-byte CTR keystream — keep the unit busy.
// encrypt4_1 adds a fifth chain under a second key schedule (the MAC
// pad), and encrypt8 runs two keystreams for the batch paths.
#include "crypto/crypto_backend.h"
#include "crypto/cpu_features.h"

#if defined(SECMEM_HAVE_AESNI)
#include <wmmintrin.h>

namespace secmem {

namespace {

// One round of FIPS-197 key expansion. AESKEYGENASSIST computes
// SubWord(RotWord(w3)) ^ rcon in lane 3; the xor-cascade folds the
// previous round key's words in.
template <int kRcon>
__m128i expand_round(__m128i key) noexcept {
  __m128i assist = _mm_aeskeygenassist_si128(key, kRcon);
  assist = _mm_shuffle_epi32(assist, _MM_SHUFFLE(3, 3, 3, 3));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

void ni_expand_key(const std::uint8_t* key, std::uint8_t* rk) {
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  auto store = [&rk](int round, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rk + 16 * round), v);
  };
  store(0, k);
  store(1, k = expand_round<0x01>(k));
  store(2, k = expand_round<0x02>(k));
  store(3, k = expand_round<0x04>(k));
  store(4, k = expand_round<0x08>(k));
  store(5, k = expand_round<0x10>(k));
  store(6, k = expand_round<0x20>(k));
  store(7, k = expand_round<0x40>(k));
  store(8, k = expand_round<0x80>(k));
  store(9, k = expand_round<0x1b>(k));
  store(10, k = expand_round<0x36>(k));
}

inline __m128i round_key(const std::uint8_t* rk, int round) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * round));
}

void ni_encrypt1(const std::uint8_t* rk, const std::uint8_t* in,
                 std::uint8_t* out) {
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  s = _mm_xor_si128(s, round_key(rk, 0));
  for (int round = 1; round < 10; ++round)
    s = _mm_aesenc_si128(s, round_key(rk, round));
  s = _mm_aesenclast_si128(s, round_key(rk, 10));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

void ni_encrypt4(const std::uint8_t* rk, const std::uint8_t* in,
                 std::uint8_t* out) {
  const __m128i* src = reinterpret_cast<const __m128i*>(in);
  __m128i s0 = _mm_loadu_si128(src + 0);
  __m128i s1 = _mm_loadu_si128(src + 1);
  __m128i s2 = _mm_loadu_si128(src + 2);
  __m128i s3 = _mm_loadu_si128(src + 3);
  __m128i k = round_key(rk, 0);
  s0 = _mm_xor_si128(s0, k);
  s1 = _mm_xor_si128(s1, k);
  s2 = _mm_xor_si128(s2, k);
  s3 = _mm_xor_si128(s3, k);
  for (int round = 1; round < 10; ++round) {
    k = round_key(rk, round);
    s0 = _mm_aesenc_si128(s0, k);
    s1 = _mm_aesenc_si128(s1, k);
    s2 = _mm_aesenc_si128(s2, k);
    s3 = _mm_aesenc_si128(s3, k);
  }
  k = round_key(rk, 10);
  __m128i* dst = reinterpret_cast<__m128i*>(out);
  _mm_storeu_si128(dst + 0, _mm_aesenclast_si128(s0, k));
  _mm_storeu_si128(dst + 1, _mm_aesenclast_si128(s1, k));
  _mm_storeu_si128(dst + 2, _mm_aesenclast_si128(s2, k));
  _mm_storeu_si128(dst + 3, _mm_aesenclast_si128(s3, k));
}

// Four keystream chains under rk_a and one pad chain under rk_b, issued
// round by round: the fifth chain fills an AESENC slot the four-block
// kernel leaves idle, so the pad no longer costs a serial AES latency.
void ni_encrypt4_1(const std::uint8_t* rk_a, const std::uint8_t* in4,
                   std::uint8_t* out4, const std::uint8_t* rk_b,
                   const std::uint8_t* in1, std::uint8_t* out1) {
  const __m128i* src = reinterpret_cast<const __m128i*>(in4);
  __m128i s0 = _mm_loadu_si128(src + 0);
  __m128i s1 = _mm_loadu_si128(src + 1);
  __m128i s2 = _mm_loadu_si128(src + 2);
  __m128i s3 = _mm_loadu_si128(src + 3);
  __m128i p = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in1));
  __m128i k = round_key(rk_a, 0);
  s0 = _mm_xor_si128(s0, k);
  s1 = _mm_xor_si128(s1, k);
  s2 = _mm_xor_si128(s2, k);
  s3 = _mm_xor_si128(s3, k);
  p = _mm_xor_si128(p, round_key(rk_b, 0));
  for (int round = 1; round < 10; ++round) {
    k = round_key(rk_a, round);
    s0 = _mm_aesenc_si128(s0, k);
    s1 = _mm_aesenc_si128(s1, k);
    s2 = _mm_aesenc_si128(s2, k);
    s3 = _mm_aesenc_si128(s3, k);
    p = _mm_aesenc_si128(p, round_key(rk_b, round));
  }
  k = round_key(rk_a, 10);
  __m128i* dst = reinterpret_cast<__m128i*>(out4);
  _mm_storeu_si128(dst + 0, _mm_aesenclast_si128(s0, k));
  _mm_storeu_si128(dst + 1, _mm_aesenclast_si128(s1, k));
  _mm_storeu_si128(dst + 2, _mm_aesenclast_si128(s2, k));
  _mm_storeu_si128(dst + 3, _mm_aesenclast_si128(s3, k));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out1),
                   _mm_aesenclast_si128(p, round_key(rk_b, 10)));
}

void ni_encrypt8(const std::uint8_t* rk, const std::uint8_t* in,
                 std::uint8_t* out) {
  const __m128i* src = reinterpret_cast<const __m128i*>(in);
  __m128i s0 = _mm_loadu_si128(src + 0);
  __m128i s1 = _mm_loadu_si128(src + 1);
  __m128i s2 = _mm_loadu_si128(src + 2);
  __m128i s3 = _mm_loadu_si128(src + 3);
  __m128i s4 = _mm_loadu_si128(src + 4);
  __m128i s5 = _mm_loadu_si128(src + 5);
  __m128i s6 = _mm_loadu_si128(src + 6);
  __m128i s7 = _mm_loadu_si128(src + 7);
  __m128i k = round_key(rk, 0);
  s0 = _mm_xor_si128(s0, k);
  s1 = _mm_xor_si128(s1, k);
  s2 = _mm_xor_si128(s2, k);
  s3 = _mm_xor_si128(s3, k);
  s4 = _mm_xor_si128(s4, k);
  s5 = _mm_xor_si128(s5, k);
  s6 = _mm_xor_si128(s6, k);
  s7 = _mm_xor_si128(s7, k);
  for (int round = 1; round < 10; ++round) {
    k = round_key(rk, round);
    s0 = _mm_aesenc_si128(s0, k);
    s1 = _mm_aesenc_si128(s1, k);
    s2 = _mm_aesenc_si128(s2, k);
    s3 = _mm_aesenc_si128(s3, k);
    s4 = _mm_aesenc_si128(s4, k);
    s5 = _mm_aesenc_si128(s5, k);
    s6 = _mm_aesenc_si128(s6, k);
    s7 = _mm_aesenc_si128(s7, k);
  }
  k = round_key(rk, 10);
  __m128i* dst = reinterpret_cast<__m128i*>(out);
  _mm_storeu_si128(dst + 0, _mm_aesenclast_si128(s0, k));
  _mm_storeu_si128(dst + 1, _mm_aesenclast_si128(s1, k));
  _mm_storeu_si128(dst + 2, _mm_aesenclast_si128(s2, k));
  _mm_storeu_si128(dst + 3, _mm_aesenclast_si128(s3, k));
  _mm_storeu_si128(dst + 4, _mm_aesenclast_si128(s4, k));
  _mm_storeu_si128(dst + 5, _mm_aesenclast_si128(s5, k));
  _mm_storeu_si128(dst + 6, _mm_aesenclast_si128(s6, k));
  _mm_storeu_si128(dst + 7, _mm_aesenclast_si128(s7, k));
}

// Equivalent inverse cipher: AESDEC expects InvMixColumns-transformed
// round keys. Decryption is off the hot path (CTR mode and the MAC pad
// only ever encrypt), so the AESIMC transforms run per call instead of
// being cached in a second schedule.
void ni_decrypt1(const std::uint8_t* rk, const std::uint8_t* in,
                 std::uint8_t* out) {
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  s = _mm_xor_si128(s, round_key(rk, 10));
  for (int round = 9; round >= 1; --round)
    s = _mm_aesdec_si128(s, _mm_aesimc_si128(round_key(rk, round)));
  s = _mm_aesdeclast_si128(s, round_key(rk, 0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

constexpr Aes128Ops kNiOps = {
    "aes-ni",      ni_expand_key, ni_encrypt1, ni_encrypt4,
    ni_encrypt4_1, ni_encrypt8,   ni_decrypt1,
};

}  // namespace

const Aes128Ops* aes128_ops_accelerated() noexcept {
  const CpuFeatures& cpu = cpu_features();
  return cpu.aesni && cpu.sse41 ? &kNiOps : nullptr;
}

}  // namespace secmem

#else  // !SECMEM_HAVE_AESNI: built without AES-NI support

namespace secmem {

const Aes128Ops* aes128_ops_accelerated() noexcept { return nullptr; }

}  // namespace secmem

#endif
