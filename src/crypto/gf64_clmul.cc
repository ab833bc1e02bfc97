// PCLMULQDQ kernels for GF(2^64) (this translation unit alone is
// compiled with -mpclmul -msse4.1; see src/crypto/CMakeLists.txt).
//
// gf64_mul mirrors the portable reduction exactly: the 128-bit carry-less
// product is folded twice with the reduction constant 0x1b
// (x^64 ≡ x^4 + x^3 + x + 1), the second fold absorbing the ≤4-bit spill
// of the first. Three PCLMULQDQs replace a 64-iteration schoolbook loop.
//
// fold8_hw is the polynomial-hash chunk kernel: eight independent
// products m_j * h^(8-j), XORed unreduced into one 128-bit sum, then the
// same double fold once. The fold is GF(2)-linear, so reducing the sum
// equals summing the reductions — bit-identical to eight Horner steps,
// with one reduction on the dependency chain instead of eight.
#include "crypto/crypto_backend.h"
#include "crypto/cpu_features.h"

#if defined(SECMEM_HAVE_PCLMUL)
#include <smmintrin.h>
#include <wmmintrin.h>

namespace secmem {

namespace {

Clmul128 clmul_hw(std::uint64_t a, std::uint64_t b) {
  const __m128i p = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
  return {static_cast<std::uint64_t>(_mm_cvtsi128_si64(p)),
          static_cast<std::uint64_t>(_mm_extract_epi64(p, 1))};
}

// Reduce a 128-bit carry-less product modulo x^64 + x^4 + x^3 + x + 1.
std::uint64_t reduce_hw(__m128i p) {
  const __m128i poly = _mm_cvtsi64_si128(0x1b);
  const __m128i fold1 = _mm_clmulepi64_si128(p, poly, 0x01);
  const __m128i fold2 = _mm_clmulepi64_si128(fold1, poly, 0x01);
  const __m128i r = _mm_xor_si128(p, _mm_xor_si128(fold1, fold2));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(r));
}

std::uint64_t mul_hw(std::uint64_t a, std::uint64_t b) {
  return reduce_hw(_mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00));
}

// Both halves of a word pair times both halves of a coefficient pair:
// lo*lo ^ hi*hi, unreduced.
__m128i clmul_pair(__m128i words, __m128i coeffs) {
  return _mm_xor_si128(_mm_clmulepi64_si128(words, coeffs, 0x00),
                       _mm_clmulepi64_si128(words, coeffs, 0x11));
}

std::uint64_t fold8_hw(std::uint64_t u, const std::uint64_t* coeffs,
                       const std::uint8_t* chunk) {
  // x86 is little-endian: qword j of the chunk is load_le64(chunk + 8j).
  const __m128i* w = reinterpret_cast<const __m128i*>(chunk);
  const __m128i* c = reinterpret_cast<const __m128i*>(coeffs);
  const __m128i w01 = _mm_xor_si128(
      _mm_loadu_si128(w), _mm_cvtsi64_si128(static_cast<long long>(u)));
  const __m128i s01 = clmul_pair(w01, _mm_loadu_si128(c));
  const __m128i s23 =
      clmul_pair(_mm_loadu_si128(w + 1), _mm_loadu_si128(c + 1));
  const __m128i s45 =
      clmul_pair(_mm_loadu_si128(w + 2), _mm_loadu_si128(c + 2));
  const __m128i s67 =
      clmul_pair(_mm_loadu_si128(w + 3), _mm_loadu_si128(c + 3));
  return reduce_hw(_mm_xor_si128(_mm_xor_si128(s01, s23),
                                 _mm_xor_si128(s45, s67)));
}

constexpr Gf64Ops kClmulOps = {"pclmul", clmul_hw, mul_hw, fold8_hw};

}  // namespace

const Gf64Ops* gf64_ops_accelerated() noexcept {
  const CpuFeatures& cpu = cpu_features();
  return cpu.pclmul && cpu.sse41 ? &kClmulOps : nullptr;
}

}  // namespace secmem

#else  // !SECMEM_HAVE_PCLMUL: built without PCLMULQDQ support

namespace secmem {

const Gf64Ops* gf64_ops_accelerated() noexcept { return nullptr; }

}  // namespace secmem

#endif
