// Wide ChaCha20 kernels (x86-64): one state word per 32-bit lane of each
// of sixteen vector registers, so the quarter-round chains of all blocks
// run in lockstep. SSE2 runs four states in xmm registers, rotating with
// shift+or; AVX2 runs eight in ymm registers, with vpshufb for the
// byte-aligned 16/8 rotations. AVX-512 (F+VL) runs four, eight or sixteen
// in xmm, ymm or zmm registers with the native rotate (vprold): with 32
// registers the sixteen state words and the reloaded input stay in
// registers, where AVX2 spills around its two pshufb constants.
#include "crypto/simd_kernels.h"

#include <immintrin.h>

namespace gfwsim::crypto::simd {

namespace {

// Loads the states (counter words per lane from w12/w13), runs 20 rounds
// and adds the input back into x[16], with ADD, XOR, SET1, LOADU, ROTL,
// ROT16 and ROT8 defined by each kernel for its vector type V. The word
// loops are unrolled explicitly: at -O2 GCC would keep them rolled and
// x[] in memory.
#define GFWSIM_CHACHA_BODY(V)                                                     \
  V x[16];                                                                        \
  _Pragma("GCC unroll 16")                                                        \
  for (int i = 0; i < 16; ++i) x[i] = SET1(static_cast<int>(state[i]));           \
  const V in12 = x[12] = LOADU(reinterpret_cast<const V*>(w12));                 \
  const V in13 = x[13] = LOADU(reinterpret_cast<const V*>(w13));                 \
  for (int round = 0; round < 10; ++round) {                                      \
    QR(0, 4, 8, 12) QR(1, 5, 9, 13) QR(2, 6, 10, 14) QR(3, 7, 11, 15)            \
    QR(0, 5, 10, 15) QR(1, 6, 11, 12) QR(2, 7, 8, 13) QR(3, 4, 9, 14)            \
  }                                                                               \
  _Pragma("GCC unroll 16")                                                        \
  for (int i = 0; i < 16; ++i) {                                                  \
    x[i] = ADD(x[i], i == 12 ? in12 : i == 13 ? in13 : SET1(static_cast<int>(state[i]))); \
  }
#define QR(a, b, c, d)                                                \
  x[a] = ADD(x[a], x[b]); x[d] = ROT16(XOR(x[d], x[a]));              \
  x[c] = ADD(x[c], x[d]); x[b] = ROTL(XOR(x[b], x[c]), 12);           \
  x[a] = ADD(x[a], x[b]); x[d] = ROT8(XOR(x[d], x[a]));               \
  x[c] = ADD(x[c], x[d]); x[b] = ROTL(XOR(x[b], x[c]), 7);

// Transposes four xmm-wide states (word i of lane l in x[i] lane l) into
// four lane-major 64-byte blocks.
__attribute__((target("sse2"))) inline void store_blocks4(const __m128i x[16],
                                                          std::uint8_t out[256]) {
#pragma GCC unroll 4
  for (int i = 0; i < 16; i += 4) {
    const __m128i t0 = _mm_unpacklo_epi32(x[i], x[i + 1]);
    const __m128i t1 = _mm_unpacklo_epi32(x[i + 2], x[i + 3]);
    const __m128i t2 = _mm_unpackhi_epi32(x[i], x[i + 1]);
    const __m128i t3 = _mm_unpackhi_epi32(x[i + 2], x[i + 3]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 4), _mm_unpacklo_epi64(t0, t1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 64 + i * 4), _mm_unpackhi_epi64(t0, t1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 128 + i * 4), _mm_unpacklo_epi64(t2, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 192 + i * 4), _mm_unpackhi_epi64(t2, t3));
  }
}

// The same for eight ymm-wide states: lanes 0..3 sit in the low 128-bit
// halves, lanes 4..7 in the high ones.
__attribute__((target("avx2"))) inline void store_blocks8(const __m256i x[16],
                                                          std::uint8_t out[512]) {
  __m128i half[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) half[i] = _mm256_castsi256_si128(x[i]);
  store_blocks4(half, out);
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) half[i] = _mm256_extracti128_si256(x[i], 1);
  store_blocks4(half, out + 256);
}

__attribute__((target("sse2"))) void blocks4_sse2(const std::uint32_t state[16],
                                                  const std::uint32_t w12[4],
                                                  const std::uint32_t w13[4],
                                                  std::uint8_t out[256]) {
#define ADD _mm_add_epi32
#define XOR _mm_xor_si128
#define SET1 _mm_set1_epi32
#define LOADU _mm_loadu_si128
#define ROTL(v, n) _mm_or_si128(_mm_slli_epi32(v, n), _mm_srli_epi32(v, 32 - (n)))
#define ROT16(v) ROTL(v, 16)
#define ROT8(v) ROTL(v, 8)
  GFWSIM_CHACHA_BODY(__m128i)
  store_blocks4(x, out);
#undef ADD
#undef XOR
#undef SET1
#undef LOADU
#undef ROTL
#undef ROT16
#undef ROT8
}

__attribute__((target("avx2"))) void blocks8_avx2(const std::uint32_t state[16],
                                                  const std::uint32_t w12[8],
                                                  const std::uint32_t w13[8],
                                                  std::uint8_t out[512]) {
  const __m256i rot16 = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                                         2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                                        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
#define ADD _mm256_add_epi32
#define XOR _mm256_xor_si256
#define SET1 _mm256_set1_epi32
#define LOADU _mm256_loadu_si256
#define ROTL(v, n) _mm256_or_si256(_mm256_slli_epi32(v, n), _mm256_srli_epi32(v, 32 - (n)))
#define ROT16(v) _mm256_shuffle_epi8(v, rot16)
#define ROT8(v) _mm256_shuffle_epi8(v, rot8)
  GFWSIM_CHACHA_BODY(__m256i)
  store_blocks8(x, out);
#undef ADD
#undef XOR
#undef SET1
#undef LOADU
#undef ROTL
#undef ROT16
#undef ROT8
}

// The AVX-512 kernels differ only in vector width; ROT16 and ROT8 are
// plain vprold too.
#define ROT16(v) ROTL(v, 16)
#define ROT8(v) ROTL(v, 8)

__attribute__((target("avx512f,avx512vl"))) void blocks4_avx512(const std::uint32_t state[16],
                                                                const std::uint32_t w12[4],
                                                                const std::uint32_t w13[4],
                                                                std::uint8_t out[256]) {
#define ADD _mm_add_epi32
#define XOR _mm_xor_si128
#define SET1 _mm_set1_epi32
#define LOADU _mm_loadu_si128
#define ROTL _mm_rol_epi32
  GFWSIM_CHACHA_BODY(__m128i)
  store_blocks4(x, out);
#undef ADD
#undef XOR
#undef SET1
#undef LOADU
#undef ROTL
}

__attribute__((target("avx512f,avx512vl"))) void blocks8_avx512(const std::uint32_t state[16],
                                                                const std::uint32_t w12[8],
                                                                const std::uint32_t w13[8],
                                                                std::uint8_t out[512]) {
#define ADD _mm256_add_epi32
#define XOR _mm256_xor_si256
#define SET1 _mm256_set1_epi32
#define LOADU _mm256_loadu_si256
#define ROTL _mm256_rol_epi32
  GFWSIM_CHACHA_BODY(__m256i)
  store_blocks8(x, out);
#undef ADD
#undef XOR
#undef SET1
#undef LOADU
#undef ROTL
}

// GCC 12's zmm intrinsics (unpack, shuffle, rotate) pass
// _mm512_undefined_epi32() as the unused merge source, which
// -Wuninitialized reports at every inlined use. The zmm code below is
// fenced off from that warning and nothing else is.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// The same for sixteen zmm-wide states. A 4x4 transpose of 32-bit words
// inside each 128-bit lane leaves y[4j + k] holding words 4j..4j+3 of
// block 4g + k in its lane g; a 4x4 transpose of 128-bit lanes across
// y[k], y[4 + k], y[8 + k], y[12 + k] then assembles blocks k, 4 + k,
// 8 + k and 12 + k whole.
__attribute__((target("avx512f"))) inline void store_blocks16(const __m512i x[16],
                                                              std::uint8_t out[1024]) {
  __m512i y[16];
#pragma GCC unroll 4
  for (int i = 0; i < 16; i += 4) {
    const __m512i t0 = _mm512_unpacklo_epi32(x[i], x[i + 1]);
    const __m512i t1 = _mm512_unpacklo_epi32(x[i + 2], x[i + 3]);
    const __m512i t2 = _mm512_unpackhi_epi32(x[i], x[i + 1]);
    const __m512i t3 = _mm512_unpackhi_epi32(x[i + 2], x[i + 3]);
    y[i] = _mm512_unpacklo_epi64(t0, t1);
    y[i + 1] = _mm512_unpackhi_epi64(t0, t1);
    y[i + 2] = _mm512_unpacklo_epi64(t2, t3);
    y[i + 3] = _mm512_unpackhi_epi64(t2, t3);
  }
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    const __m512i ab_lo = _mm512_shuffle_i32x4(y[k], y[4 + k], 0x44);
    const __m512i ab_hi = _mm512_shuffle_i32x4(y[k], y[4 + k], 0xee);
    const __m512i cd_lo = _mm512_shuffle_i32x4(y[8 + k], y[12 + k], 0x44);
    const __m512i cd_hi = _mm512_shuffle_i32x4(y[8 + k], y[12 + k], 0xee);
    _mm512_storeu_si512(out + 64 * k, _mm512_shuffle_i32x4(ab_lo, cd_lo, 0x88));
    _mm512_storeu_si512(out + 64 * (4 + k), _mm512_shuffle_i32x4(ab_lo, cd_lo, 0xdd));
    _mm512_storeu_si512(out + 64 * (8 + k), _mm512_shuffle_i32x4(ab_hi, cd_hi, 0x88));
    _mm512_storeu_si512(out + 64 * (12 + k), _mm512_shuffle_i32x4(ab_hi, cd_hi, 0xdd));
  }
}

__attribute__((target("avx512f,avx512vl"))) void blocks16_avx512(const std::uint32_t state[16],
                                                                 const std::uint32_t w12[16],
                                                                 const std::uint32_t w13[16],
                                                                 std::uint8_t out[1024]) {
#define ADD _mm512_add_epi32
#define XOR _mm512_xor_si512
#define SET1 _mm512_set1_epi32
#define LOADU _mm512_loadu_si512
#define ROTL _mm512_rol_epi32
  GFWSIM_CHACHA_BODY(__m512i)
  store_blocks16(x, out);
#undef ADD
#undef XOR
#undef SET1
#undef LOADU
#undef ROTL
}

#pragma GCC diagnostic pop

#undef ROT16
#undef ROT8
#undef QR
#undef GFWSIM_CHACHA_BODY

}  // namespace

void chacha20_blocks4_sse2(const std::uint32_t state[16], const std::uint32_t w12[],
                           const std::uint32_t w13[], std::uint8_t out[]) {
  blocks4_sse2(state, w12, w13, out);
}

void chacha20_blocks8_avx2(const std::uint32_t state[16], const std::uint32_t w12[],
                           const std::uint32_t w13[], std::uint8_t out[]) {
  blocks8_avx2(state, w12, w13, out);
}

void chacha20_blocks4_avx512(const std::uint32_t state[16], const std::uint32_t w12[],
                             const std::uint32_t w13[], std::uint8_t out[]) {
  blocks4_avx512(state, w12, w13, out);
}

void chacha20_blocks8_avx512(const std::uint32_t state[16], const std::uint32_t w12[],
                             const std::uint32_t w13[], std::uint8_t out[]) {
  blocks8_avx512(state, w12, w13, out);
}

void chacha20_blocks16_avx512(const std::uint32_t state[16], const std::uint32_t w12[],
                              const std::uint32_t w13[], std::uint8_t out[]) {
  blocks16_avx512(state, w12, w13, out);
}

}  // namespace gfwsim::crypto::simd
