#include "crypto/gf64.h"

#include "common/bitops.h"
#include "crypto/crypto_backend.h"

namespace secmem {

Clmul128 clmul64_portable(std::uint64_t a, std::uint64_t b) noexcept {
  // Shift-and-xor schoolbook carry-less multiply. Branch on bits of b.
  std::uint64_t lo = 0, hi = 0;
  for (int i = 0; i < 64; ++i) {
    if ((b >> i) & 1) {
      lo ^= a << i;
      if (i != 0) hi ^= a >> (64 - i);
    }
  }
  return {lo, hi};
}

std::uint64_t gf64_mul_portable(std::uint64_t a, std::uint64_t b) noexcept {
  // Reduce the 128-bit product modulo x^64 + x^4 + x^3 + x + 1.
  // x^64 ≡ x^4 + x^3 + x + 1 = 0x1b, so each high bit h_i contributes
  // 0x1b << i; folding twice handles the <= 4-bit spill of the first fold.
  const Clmul128 p = clmul64_portable(a, b);
  std::uint64_t lo = p.lo;
  std::uint64_t hi = p.hi;
  for (int fold = 0; fold < 2 && hi != 0; ++fold) {
    const Clmul128 r = clmul64_portable(hi, 0x1bULL);
    lo ^= r.lo;
    hi = r.hi;
  }
  return lo;
}

namespace {

std::uint64_t fold8_portable(std::uint64_t u, const std::uint64_t* coeffs,
                             const std::uint8_t* chunk) {
  std::uint64_t acc = gf64_mul_portable(load_le64(chunk) ^ u, coeffs[0]);
  for (int j = 1; j < 8; ++j)
    acc ^= gf64_mul_portable(load_le64(chunk + 8 * j), coeffs[j]);
  return acc;
}

}  // namespace

Clmul128 clmul64(std::uint64_t a, std::uint64_t b) noexcept {
  return gf64_ops().clmul(a, b);
}

std::uint64_t gf64_mul(std::uint64_t a, std::uint64_t b) noexcept {
  return gf64_ops().mul(a, b);
}

const Gf64Ops& gf64_ops_portable() noexcept {
  static constexpr Gf64Ops ops = {"portable", clmul64_portable,
                                  gf64_mul_portable, fold8_portable};
  return ops;
}

Gf64MulTable::Gf64MulTable(std::uint64_t h) noexcept {
  for (int i = 0; i < 8; ++i)
    for (int b = 0; b < 256; ++b)
      table_[i][b] =
          gf64_mul(static_cast<std::uint64_t>(b) << (8 * i), h);
}

std::uint64_t gf64_pow(std::uint64_t base, std::uint64_t exp) noexcept {
  std::uint64_t result = 1;  // multiplicative identity: polynomial "1"
  std::uint64_t acc = base;
  while (exp != 0) {
    if (exp & 1) result = gf64_mul(result, acc);
    acc = gf64_mul(acc, acc);
    exp >>= 1;
  }
  return result;
}

}  // namespace secmem
