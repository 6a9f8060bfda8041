// 4-way AVX2 Poly1305 kernel (x86-64), after Goll & Gueron,
// "Vectorization of Poly1305 Message Authentication Code" (2015).
//
// Each 64-bit lane of a ymm register holds one 26-bit limb of one of four
// accumulators, and VPMULUDQ multiplies the low 32 bits of all four lanes
// at once. Lane j absorbs blocks j, j+4, j+8, ... as A_j = (A_j + m) r^4,
// so four independent Horner chains share one multiply; the last group
// multiplies lane j by r^(4-j) instead, and the lanes' sum is the same
// polynomial in r that the one-block-at-a-time loop computes.
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

}  // namespace gfwsim::crypto::simd
