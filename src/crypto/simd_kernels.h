// Internal declarations of the x86-64 SIMD crypto kernels.
//
// The definitions live in aes_x86.cpp / gcm_x86.cpp / chacha20_x86.cpp /
// poly1305_x86.cpp / sha1_x86.cpp, which CMake adds to ss_crypto only when the toolchain probe passes
// (GFWSIM_HAVE_X86_SIMD) and GFW_FORCE_REF_CRYPTO is off. Call sites in
// the generic kernels are guarded by the same macro, and reachable only
// when the matching cpu_features() bit is set, so every function here
// may assume its ISA extension is present.
//
// All kernels are bit-identical to the reference tier by construction;
// tests/crypto/wide_kernels_test.cpp cross-checks them at every lane
// occupancy and tail length, and calls each ChaCha20 and Poly1305 vector
// kernel directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/cpu.h"

namespace gfwsim::crypto::simd {

// ---- AES-NI ---------------------------------------------------------------

// Encrypts n independent 16-byte blocks (1 <= n <= 8) with the expanded
// byte round-key schedule `rk`. n == 8 runs eight interleaved AESENC
// chains, hiding the ~4-cycle instruction latency the single-block
// kernel stalls on; smaller n uses a rolled loop (tail path).
void aes_encrypt_blocks(const std::uint8_t* rk, int rounds, const std::uint8_t* in,
                        std::uint8_t* out, std::size_t n);

// ---- PCLMUL GHASH ---------------------------------------------------------

struct GhashU128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

// Precomputes the bit-reflected key material for ghash_fold4 from
// {H^4, H^3, H^2, H^1} (GCM bit order, big-endian halves). key_out is
// 64 bytes, opaque to the caller.
void ghash_init(const GhashU128 hpow[4], std::uint8_t key_out[64]);

// One aggregated reduction over four blocks:
//   Y' = (Y ^ b0)*H^4 ^ b1*H^3 ^ b2*H^2 ^ b3*H
// The four carry-less products are XOR-summed before a single
// reduction, so the serial reduction chain amortizes over 64 bytes.
void ghash_fold4(std::uint64_t& yhi, std::uint64_t& ylo, const std::uint8_t blocks[64],
                 const std::uint8_t key[64]);

// ---- ChaCha20 -------------------------------------------------------------

// One pass of `lanes` interleaved ChaCha20 states sharing words 0..11 and
// 14..15 of `state`; per-lane counter words 12/13 come in via w12/w13
// (the caller materializes the 32-bit-wrap IETF vs 64-bit legacy
// increment). Writes lanes x 64 bytes of keystream, lane-major.
using ChaChaPassFn = void (*)(const std::uint32_t state[16], const std::uint32_t w12[],
                              const std::uint32_t w13[], std::uint8_t out[]);

// 4 lanes in xmm, rotating with shift+or.
void chacha20_blocks4_sse2(const std::uint32_t state[16], const std::uint32_t w12[],
                           const std::uint32_t w13[], std::uint8_t out[]);
// 8 lanes in ymm, vpshufb for the 16/8-bit rotations.
void chacha20_blocks8_avx2(const std::uint32_t state[16], const std::uint32_t w12[],
                           const std::uint32_t w13[], std::uint8_t out[]);
// 4, 8 or 16 lanes in xmm, ymm or zmm with vprold (AVX-512F+VL).
void chacha20_blocks4_avx512(const std::uint32_t state[16], const std::uint32_t w12[],
                             const std::uint32_t w13[], std::uint8_t out[]);
void chacha20_blocks8_avx512(const std::uint32_t state[16], const std::uint32_t w12[],
                             const std::uint32_t w13[], std::uint8_t out[]);
void chacha20_blocks16_avx512(const std::uint32_t state[16], const std::uint32_t w12[],
                              const std::uint32_t w13[], std::uint8_t out[]);

// Every compiled pass kernel with the CpuFeatures bit it needs (and that
// bit's name), for the tests and microbenchmarks that call each one
// directly: a host dispatches to only some of them.
struct ChaChaPassKernel {
  const char* name;
  std::size_t lanes;
  bool CpuFeatures::*have;
  const char* feature;
  ChaChaPassFn pass;
};
inline constexpr ChaChaPassKernel kChaChaPassKernels[] = {
    {"sse2x4", 4, &CpuFeatures::sse2, "sse2", chacha20_blocks4_sse2},
    {"avx2x8", 8, &CpuFeatures::avx2, "avx2", chacha20_blocks8_avx2},
    {"avx512x4", 4, &CpuFeatures::avx512, "avx512", chacha20_blocks4_avx512},
    {"avx512x8", 8, &CpuFeatures::avx512, "avx512", chacha20_blocks8_avx512},
    {"avx512x16", 16, &CpuFeatures::avx512, "avx512", chacha20_blocks16_avx512},
};

// ---- Poly1305 ------------------------------------------------------------

// Absorbs n 16-byte blocks (n a positive multiple of 4), each with the
// 2^128 pad bit, into the accumulator h (26-bit limbs, limbs 1 and 4 may
// run a few bits over): h = (...((h + m0) r + m1) r ... + m(n-1)) r mod
// 2^130 - 5. rpow holds r^1..r^4 as 26-bit limbs. Four AVX2 lanes each
// run every fourth block against r^4; the last group folds the lanes
// with r^4..r^1.
void poly1305_blocks_avx2(std::uint32_t h[5], const std::uint32_t rpow[4][5],
                          const std::uint8_t* blocks, std::size_t n);

// The same on radix-2^44 limbs (44/44/42 bits, as the portable tier
// keeps them; the middle limb may carry a bit over) with n a positive
// multiple of 8 and rpow holding r^1..r^8: eight zmm lanes each run
// every eighth block against r^8 with AVX-512 IFMA (vpmadd52luq/huq:
// nine products per block, each in a low and a high 52-bit half), and
// the last group folds the lanes with r^8..r^1.
void poly1305_blocks_ifma(std::uint64_t h[3], const std::uint64_t rpow[8][3],
                          const std::uint8_t* blocks, std::size_t n);

// ---- SHA-1 ----------------------------------------------------------------

// Compresses n 64-byte blocks into state (FIPS 180-4 word order) with the
// SHA extensions: SHA1RNDS4 four rounds at a time, SHA1MSG1/SHA1MSG2 for
// the message schedule.
void sha1_blocks(std::uint32_t state[5], const std::uint8_t* blocks, std::size_t n);

}  // namespace gfwsim::crypto::simd
