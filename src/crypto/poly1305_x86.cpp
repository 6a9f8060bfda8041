// Vector Poly1305 kernels (x86-64): 4-way AVX2 in radix 2^26, after Goll
// & Gueron, "Vectorization of Poly1305 Message Authentication Code"
// (2015), and 8-way AVX-512 IFMA in radix 2^44, after OpenSSL's
// poly1305_blocks_vpmadd52.
//
// Each 64-bit lane of a ymm register holds one 26-bit limb of one of four
// accumulators, and VPMULUDQ multiplies the low 32 bits of all four lanes
// at once. Lane j absorbs blocks j, j+4, j+8, ... as A_j = (A_j + m) r^4,
// so four independent Horner chains share one multiply; the last group
// multiplies lane j by r^(4-j) instead, and the lanes' sum is the same
// polynomial in r that the one-block-at-a-time loop computes.
//
// The IFMA kernel works the same way over eight lanes, against r^8, on
// the portable tier's own 44/44/42-bit limbs: vpmadd52luq/vpmadd52huq
// give the low and high 52 bits of each 104-bit product, so a block
// costs nine products (each in two halves) instead of 25, and h needs
// no conversion to 26-bit limbs and back.
//
// The limb loops carry `#pragma GCC unroll`: at -O2 GCC would otherwise
// keep them rolled, with the limb arrays in memory and the r/5r choice
// made at run time, which halves the kernel's speed.
#include "crypto/simd_kernels.h"

#include <immintrin.h>

namespace gfwsim::crypto::simd {

namespace {

constexpr std::uint64_t kMask26 = 0x3ffffff;

// Four blocks as five limb vectors. Unpacking the 64-bit halves of two
// 32-byte loads puts blocks 0, 2, 1, 3 in lanes 0..3.
__attribute__((target("avx2"))) inline void load_blocks4(const std::uint8_t* m,
                                                         __m256i out[5]) {
  const __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m));
  const __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 32));
  const __m256i lo = _mm256_unpacklo_epi64(x0, x1);
  const __m256i hi = _mm256_unpackhi_epi64(x0, x1);
  const __m256i mask = _mm256_set1_epi64x(kMask26);
  out[0] = _mm256_and_si256(lo, mask);
  out[1] = _mm256_and_si256(_mm256_srli_epi64(lo, 26), mask);
  out[2] = _mm256_and_si256(
      _mm256_or_si256(_mm256_srli_epi64(lo, 52), _mm256_slli_epi64(hi, 12)), mask);
  out[3] = _mm256_and_si256(_mm256_srli_epi64(hi, 14), mask);
  // Bits 104..127 and the 2^128 pad bit.
  out[4] = _mm256_or_si256(_mm256_srli_epi64(hi, 40), _mm256_set1_epi64x(1 << 24));
}

__attribute__((target("avx2"))) inline __m256i mac(__m256i acc, __m256i x, __m256i y) {
  return _mm256_add_epi64(acc, _mm256_mul_epu32(x, y));
}

// d = a * r mod 2^130 - 5 as uncarried column sums; s = 5 r folds the
// columns past 2^130. With a under 2^28 and s under 2^29, a column of
// five products stays under 2^60.
__attribute__((target("avx2"))) inline void mul(const __m256i a[5], const __m256i r[5],
                                                const __m256i s[5], __m256i d[5]) {
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    d[i] = _mm256_mul_epu32(a[0], r[i]);
#pragma GCC unroll 4
    for (int j = 1; j < 5; ++j) d[i] = mac(d[i], a[j], j <= i ? r[i - j] : s[5 + i - j]);
  }
}

// Moves the bits of limb `from` past 26 into limb `to`. 2^130 = 5 mod p,
// so a carry out of limb 4 lands in limb 0 times 5.
__attribute__((target("avx2"))) inline void carry_step(__m256i d[5], int from, int to) {
  const __m256i c = _mm256_srli_epi64(d[from], 26);
  d[from] = _mm256_and_si256(d[from], _mm256_set1_epi64x(kMask26));
  d[to] = _mm256_add_epi64(d[to], to == 0 ? _mm256_add_epi64(c, _mm256_slli_epi64(c, 2)) : c);
}

// Partial carry in two interleaved chains (0->1->2->3 and 3->4->0->1),
// leaving limbs under 2^26 except limbs 1 and 4, a few bits over.
__attribute__((target("avx2"))) inline void carry(__m256i d[5]) {
  carry_step(d, 0, 1);
  carry_step(d, 3, 4);
  carry_step(d, 1, 2);
  carry_step(d, 4, 0);
  carry_step(d, 2, 3);
  carry_step(d, 0, 1);
  carry_step(d, 3, 4);
}

__attribute__((target("avx2"))) inline std::uint64_t sum_lanes(__m256i v) {
  const __m128i x = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(x)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(x, 1));
}

}  // namespace

__attribute__((target("avx2"))) void poly1305_blocks_avx2(std::uint32_t h[5],
                                                          const std::uint32_t rpow[4][5],
                                                          const std::uint8_t* blocks,
                                                          std::size_t n) {
  __m256i r4[5], s4[5], rl[5], sl[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    r4[i] = _mm256_set1_epi64x(rpow[3][i]);
    s4[i] = _mm256_set1_epi64x(5 * static_cast<std::uint64_t>(rpow[3][i]));
    // Lanes hold blocks 0, 2, 1, 3 of the last group: r^4, r^2, r^3, r^1.
    rl[i] = _mm256_set_epi64x(rpow[0][i], rpow[2][i], rpow[1][i], rpow[3][i]);
    sl[i] = _mm256_add_epi64(rl[i], _mm256_slli_epi64(rl[i], 2));
  }
  __m256i a[5], m[5], d[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) a[i] = _mm256_set_epi64x(0, 0, 0, h[i]);
  for (; n > 4; n -= 4, blocks += 64) {
    load_blocks4(blocks, m);
#pragma GCC unroll 5
    for (int i = 0; i < 5; ++i) a[i] = _mm256_add_epi64(a[i], m[i]);
    mul(a, r4, s4, d);
    carry(d);
#pragma GCC unroll 5
    for (int i = 0; i < 5; ++i) a[i] = d[i];
  }
  load_blocks4(blocks, m);
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) a[i] = _mm256_add_epi64(a[i], m[i]);
  mul(a, rl, sl, d);

  // Fold the lanes (each column under 2^62) and carry them to 26 bits.
  std::uint64_t t[5];
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) t[i] = sum_lanes(d[i]);
  std::uint64_t c;
  c = t[0] >> 26; t[0] &= kMask26; t[1] += c;
  c = t[1] >> 26; t[1] &= kMask26; t[2] += c;
  c = t[2] >> 26; t[2] &= kMask26; t[3] += c;
  c = t[3] >> 26; t[3] &= kMask26; t[4] += c;
  c = t[4] >> 26; t[4] &= kMask26; t[0] += c * 5;
  c = t[0] >> 26; t[0] &= kMask26; t[1] += c;
  for (int i = 0; i < 5; ++i) h[i] = static_cast<std::uint32_t>(t[i]);
}

// GCC 12's zmm intrinsics (shifts, unpacks, the lane sum) pass
// _mm512_undefined_epi32() as the unused merge source, which
// -Wuninitialized reports at every inlined use; the IFMA kernel is
// fenced off from that warning and nothing else is.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

constexpr std::uint64_t kMask44 = 0xfffffffffff;
constexpr std::uint64_t kMask42 = 0x3ffffffffff;

// Eight blocks as three limb vectors. Unpacking the 64-bit halves of two
// 64-byte loads puts blocks 0, 4, 1, 5, 2, 6, 3, 7 in lanes 0..7.
__attribute__((target("avx512f"))) inline void load_blocks8(const std::uint8_t* m,
                                                            __m512i out[3]) {
  const __m512i x0 = _mm512_loadu_si512(m);
  const __m512i x1 = _mm512_loadu_si512(m + 64);
  const __m512i lo = _mm512_unpacklo_epi64(x0, x1);
  const __m512i hi = _mm512_unpackhi_epi64(x0, x1);
  const __m512i mask = _mm512_set1_epi64(kMask44);
  out[0] = _mm512_and_si512(lo, mask);
  out[1] = _mm512_and_si512(_mm512_or_si512(_mm512_srli_epi64(lo, 44), _mm512_slli_epi64(hi, 20)),
                            mask);
  // Bits 88..127 and the 2^128 pad bit.
  out[2] = _mm512_or_si512(_mm512_srli_epi64(hi, 24), _mm512_set1_epi64(std::uint64_t{1} << 40));
}

// Column sums of a * r mod 2^130 - 5 in radix 2^44; s = 20 r folds the
// products at 2^132 and up (2^132 = 4 * 2^130 = 20 mod p). The high 52
// bits of a product in column k sit 2^8 above column k + 1, and those of
// column 2 fold into column 0 times 20 * 2^8. With a under 2^46 and s
// under 2^49 every product stays under 2^95, so each column ends under
// 2^56.
__attribute__((target("avx512f,avx512ifma"))) inline void mul52(const __m512i a[3],
                                                                const __m512i r[3],
                                                                const __m512i s[3],
                                                                __m512i d[3]) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i lo[3], hi[3];
#pragma GCC unroll 3
  for (int k = 0; k < 3; ++k) {
    lo[k] = hi[k] = zero;
#pragma GCC unroll 3
    for (int i = 0; i < 3; ++i) {
      const __m512i m = i <= k ? r[k - i] : s[3 + k - i];
      lo[k] = _mm512_madd52lo_epu64(lo[k], a[i], m);
      hi[k] = _mm512_madd52hi_epu64(hi[k], a[i], m);
    }
  }
  const __m512i hi2 = _mm512_slli_epi64(hi[2], 10);  // times 1024, then 5
  d[0] = _mm512_add_epi64(lo[0], _mm512_add_epi64(hi2, _mm512_slli_epi64(hi2, 2)));
  d[1] = _mm512_add_epi64(lo[1], _mm512_slli_epi64(hi[0], 8));
  d[2] = _mm512_add_epi64(lo[2], _mm512_slli_epi64(hi[1], 8));
}

// Partial carry of column sums into 44, 44(+1) and 42-bit limbs; what
// passes 2^130 folds back times 5.
__attribute__((target("avx512f"))) inline void carry52(__m512i d[3]) {
  const __m512i m44 = _mm512_set1_epi64(kMask44);
  d[1] = _mm512_add_epi64(d[1], _mm512_srli_epi64(d[0], 44));
  d[0] = _mm512_and_si512(d[0], m44);
  d[2] = _mm512_add_epi64(d[2], _mm512_srli_epi64(d[1], 44));
  d[1] = _mm512_and_si512(d[1], m44);
  const __m512i c = _mm512_srli_epi64(d[2], 42);
  d[2] = _mm512_and_si512(d[2], _mm512_set1_epi64(kMask42));
  d[0] = _mm512_add_epi64(d[0], _mm512_add_epi64(c, _mm512_slli_epi64(c, 2)));
  d[1] = _mm512_add_epi64(d[1], _mm512_srli_epi64(d[0], 44));
  d[0] = _mm512_and_si512(d[0], m44);
}

}  // namespace

__attribute__((target("avx512f,avx512ifma"))) void poly1305_blocks_ifma(
    std::uint64_t h[3], const std::uint64_t rpow[8][3], const std::uint8_t* blocks,
    std::size_t n) {
  __m512i r8[3], s8[3], rl[3], sl[3];
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) {
    r8[i] = _mm512_set1_epi64(rpow[7][i]);
    s8[i] = _mm512_set1_epi64(20 * rpow[7][i]);
    // Lanes hold blocks 0, 4, 1, 5, 2, 6, 3, 7 of the last group:
    // r^8, r^4, r^7, r^3, r^6, r^2, r^5, r^1.
    rl[i] = _mm512_set_epi64(rpow[0][i], rpow[4][i], rpow[1][i], rpow[5][i], rpow[2][i],
                             rpow[6][i], rpow[3][i], rpow[7][i]);
    sl[i] = _mm512_add_epi64(_mm512_slli_epi64(rl[i], 4), _mm512_slli_epi64(rl[i], 2));
  }
  __m512i a[3], m[3], d[3];
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) a[i] = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, h[i]);
  for (; n > 8; n -= 8, blocks += 128) {
    load_blocks8(blocks, m);
#pragma GCC unroll 3
    for (int i = 0; i < 3; ++i) a[i] = _mm512_add_epi64(a[i], m[i]);
    mul52(a, r8, s8, d);
    carry52(d);
#pragma GCC unroll 3
    for (int i = 0; i < 3; ++i) a[i] = d[i];
  }
  load_blocks8(blocks, m);
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) a[i] = _mm512_add_epi64(a[i], m[i]);
  mul52(a, rl, sl, d);

  // Fold the lanes (each column under 2^59) and carry them as carry52
  // does.
  std::uint64_t t[3];
#pragma GCC unroll 3
  for (int i = 0; i < 3; ++i) t[i] = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(d[i]));
  t[1] += t[0] >> 44;
  t[0] &= kMask44;
  t[2] += t[1] >> 44;
  t[1] &= kMask44;
  t[0] += (t[2] >> 42) * 5;
  t[2] &= kMask42;
  t[1] += t[0] >> 44;
  t[0] &= kMask44;
  for (int i = 0; i < 3; ++i) h[i] = t[i];
}

#pragma GCC diagnostic pop

}  // namespace gfwsim::crypto::simd
