// AES-GCM (NIST SP 800-38D) authenticated encryption.
//
// Shadowsocks AEAD methods "aes-128-gcm", "aes-192-gcm", and "aes-256-gcm"
// use a 12-byte nonce and 16-byte tag; seal/open below implement exactly
// that profile (96-bit IV fast path, tag appended to the ciphertext).
//
// GHASH folds four blocks per reduction using powers H^1..H^4 of the
// hash subkey: Y' = (Y ^ c1)*H^4 ^ c2*H^3 ^ c3*H^2 ^ c4*H, an exact
// regrouping of the sequential definition, so every chunking and tier
// produces identical bytes; a 1-3 block tail is zero-prefixed to four
// blocks, 0*H^4 ^ (Y ^ c1)*H^k ^ ... ^ ck*H, exact by linearity. Each
// object fixes its GHASH tier at construction and builds only that
// tier's key material. The SIMD tier does the fold with PCLMUL
// (gcm_x86.cpp) and takes H^2..H^4 from that same fold, run with H in
// every key slot; the portable tier walks four widened 8-bit Shoup
// tables in one interleaved loop (16 lookups per block, with a
// 256-entry constant reduction table folding the shifted-out byte), and
// its 16 KiB of tables is the only tier that has any. The reference
// tier is the retained bit-by-bit GF(2^128) multiply behind
// ghash_reference(). CTR keystream generation batches eight
// counter blocks per Aes::encrypt_blocks call. All tiers are
// cross-checked by tests/crypto/kernels_test.cpp and
// wide_kernels_test.cpp.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "crypto/aes.h"
#include "crypto/bytes.h"
#include "crypto/cpu.h"

namespace gfwsim::crypto {

class AesGcm {
 public:
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  // The GHASH tier is ghash_dispatch_tier() at this point; later cap
  // changes do not affect the object.
  explicit AesGcm(ByteSpan key);

  // Writes ciphertext || 16-byte tag to out[0, plaintext.size() + 16).
  void seal_into(ByteSpan nonce, ByteSpan plaintext, std::uint8_t* out,
                 ByteSpan aad = {}) const;
  // Returns ciphertext || 16-byte tag.
  Bytes seal(ByteSpan nonce, ByteSpan plaintext, ByteSpan aad = {}) const;

  // Input is ciphertext || tag. Writes the plaintext to
  // out[0, sealed.size() - 16) and returns true, or returns false if the
  // tag (or input framing) is invalid; out then holds zeros, never
  // unauthenticated plaintext. `out` must not overlap `sealed`.
  bool open_into(ByteSpan nonce, ByteSpan sealed, std::uint8_t* out, ByteSpan aad = {}) const;
  // Returns the plaintext, or nullopt if the tag (or framing) is invalid.
  std::optional<Bytes> open(ByteSpan nonce, ByteSpan sealed, ByteSpan aad = {}) const;

  using Block = Aes::Block;

  // The production GHASH (this object's tier) and the retained reference
  // kernel (bit-by-bit GF(2^128) multiply); public so tests can
  // cross-check.
  Block ghash(ByteSpan aad, ByteSpan ciphertext) const;
  Block ghash_reference(ByteSpan aad, ByteSpan ciphertext) const;
  KernelTier ghash_tier() const { return tier_; }

 private:
  struct U128 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
  };

  using HTable = std::array<U128, 256>;
  // Shoup tables: h1[i] = (i as 8-bit polynomial) * H, GCM bit order;
  // h2..h4 the same for H^2..H^4. The absorb loop folds four blocks per
  // reduction, (Y ^ c1)*H^4 ^ c2*H^3 ^ c3*H^2 ^ c4*H, so the four serial
  // multiply chains run in parallel.
  struct HTables {
    HTable h1, h2, h3, h4;
  };

  static void fill_htable(HTable& table, U128 h);
  // a*H^4 ^ b*H^3 ^ c*H^2 ^ d*H with all four table walks interleaved.
  U128 gmult_quad(U128 a, U128 b, U128 c, U128 d) const;
  // One aggregated four-block fold, Y' = (Y ^ b0)*H^4 ^ b1*H^3 ^ b2*H^2
  // ^ b3*H, PCLMUL or interleaved-table by tier. Callers guarantee the
  // tier is above reference.
  U128 fold4(U128 y, const std::uint8_t blocks[64]) const;
  // Folds `data` into the GHASH accumulator, four blocks per reduction
  // (the last fold zero-prefixed to four blocks, its final partial block
  // zero-padded).
  U128 absorb(U128 y, ByteSpan data) const;
  // Folds the length block into `y` and returns the GHASH output.
  Block finish(U128 y, std::size_t aad_len, std::size_t ct_len) const;
  void gctr(Block counter, ByteSpan in, std::uint8_t* out) const;
  // One pass of CTR + GHASH: transforms `in` into `out` with the counter
  // keystream while folding either the input (decrypt) or the output
  // (encrypt) into the GHASH accumulator. Fusing the two passes lets the
  // load-bound AES rounds overlap the latency-bound GHASH chains.
  U128 gctr_ghash(Block counter, ByteSpan in, std::uint8_t* out, bool absorb_output,
                  U128 y) const;

  Aes aes_;
  Block h_{};  // GHASH subkey: E(K, 0^128)
  KernelTier tier_ = KernelTier::kReference;
  // Bit-reflected {H^4..H^1} for the PCLMUL kernel (opaque; filled only
  // on the SIMD tier).
  std::uint8_t ghash_key_x86_[64] = {};
  // Built only on the portable tier; null on the others.
  std::unique_ptr<const HTables> tables_;
};

}  // namespace gfwsim::crypto
