// SHA-NI SHA-1 kernel (x86-64): the whole compression in SHA extension
// instructions.
//
// ABCD lives in one xmm register with A in the top lane; E rides in the
// top lane of a second register. Each SHA1RNDS4 runs four rounds with the
// round function picked by its immediate (rounds 0-19, 20-39, ...);
// SHA1NEXTE derives the next four rounds' E from the A of four rounds ago
// and adds it to the next four schedule words. The schedule itself is
// W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), built four words at a
// time in a ring of four registers: SHA1MSG1 supplies W[t-16] ^ W[t-14],
// a PXOR adds W[t-8], and SHA1MSG2 adds W[t-3] and rotates.
#include "crypto/simd_kernels.h"

#include <immintrin.h>

#include <utility>

namespace gfwsim::crypto::simd {

namespace {

// Rounds 4i..4i+3. e[i & 1] carries this step's E; e[(i + 1) & 1] saves
// ABCD for the next one. msg[i % 4] holds W[4i..4i+3] on entry, and the
// step advances the three later groups that depend on it.
template <int I>
__attribute__((target("sha,sse4.1"))) inline void sha1_step(__m128i& abcd, __m128i e[2],
                                                            __m128i msg[4]) {
  if constexpr (I == 0) {
    e[0] = _mm_add_epi32(e[0], msg[0]);
  } else {
    e[I & 1] = _mm_sha1nexte_epu32(e[I & 1], msg[I % 4]);
  }
  e[(I + 1) & 1] = abcd;
  if constexpr (I >= 3 && I <= 18) {
    msg[(I + 1) % 4] = _mm_sha1msg2_epu32(msg[(I + 1) % 4], msg[I % 4]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e[I & 1], I / 5);
  if constexpr (I >= 1 && I <= 16) {
    msg[(I + 3) % 4] = _mm_sha1msg1_epu32(msg[(I + 3) % 4], msg[I % 4]);
  }
  if constexpr (I >= 2 && I <= 17) {
    msg[(I + 2) % 4] = _mm_xor_si128(msg[(I + 2) % 4], msg[I % 4]);
  }
}

template <int... I>
__attribute__((target("sha,sse4.1"))) inline void sha1_rounds(
    __m128i& abcd, __m128i e[2], __m128i msg[4], std::integer_sequence<int, I...>) {
  (sha1_step<I>(abcd, e, msg), ...);
}

}  // namespace

__attribute__((target("sha,sse4.1"))) void sha1_blocks(std::uint32_t state[5],
                                                       const std::uint8_t* blocks,
                                                       std::size_t n) {
  // Big-endian words, and word 0 in the top lane.
  const __m128i bswap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                                   0x1b);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; n > 0; --n, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i msg[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), bswap);
    }
    __m128i e[2] = {e0, e0};
    sha1_rounds(abcd, e, msg, std::make_integer_sequence<int, 20>{});
    // Step 19 saved the final ABCD into e[0]; its A, rotated, is the
    // last E, which SHA1NEXTE adds to the saved E.
    e0 = _mm_sha1nexte_epu32(e[0], e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

}  // namespace gfwsim::crypto::simd
