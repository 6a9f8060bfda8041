// Poly1305 one-time authenticator (RFC 8439 section 2.5).
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"
#include "crypto/cpu.h"

namespace gfwsim::crypto {

class Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kTagSize = 16;
  using Tag = std::array<std::uint8_t, kTagSize>;

  explicit Poly1305(ByteSpan key);

  void update(ByteSpan data);
  Tag finish();

  static Tag mac(ByteSpan key, ByteSpan data) {
    Poly1305 p(key);
    p.update(data);
    return p.finish();
  }

 private:
  // Absorbs n 16-byte blocks; pad_bit is the 2^128 bit (0 for the padded tail).
  void absorb(const std::uint8_t* blocks, std::size_t n, std::uint8_t pad_bit);

  // Reference tier, the oracle: 26-bit limbs, one block per call. Its
  // final reduction also finishes the other tiers' accumulators.
  void process_block(const std::uint8_t block[16], std::uint8_t pad_bit);
  Tag finish_reference();
  // Portable tier, and the simd tier's short runs: 44/44/42-bit limbs
  // with 128-bit products (9 multiplies a block instead of 25), two
  // blocks per step.
  void process_blocks44(const std::uint8_t* blocks, std::size_t n, std::uint8_t pad_bit);
  // Makes r^1..r^k (k <= 8) ready in radix 2^44 and returns them. r^2 is
  // built on the first run of two blocks or more (the one-block absorbs
  // of a 2-byte length chunk's MAC never need it), r^3.. on the first
  // vector run.
  const std::uint64_t (*powers44(std::size_t k))[3];
  // Simd tier: whole groups of four blocks through the 4-way AVX2
  // kernel, h converted exactly to 26-bit limbs and back around it.
  void process_blocks_avx2(const std::uint8_t* blocks, std::size_t n);

  // Chosen at construction, so one message never mixes limb formats
  // except across the exact conversions above.
  KernelTier tier_ = KernelTier::kReference;
  // r^1..r^4 in 26-bit limbs. The reference tier sets r26_[0] at
  // construction; the AVX2 kernel's first run fills all four
  // (rpow_ready_). Left uninitialized until then: a 2-byte length chunk
  // never reads them.
  std::uint32_t r26_[4][5];
  bool rpow_ready_ = false;
  std::uint32_t h_[5]{};
  // r^1..r^8 in radix 2^44; the first powers44_ are ready, the rest
  // uninitialized.
  std::uint64_t r44_[8][3];
  std::size_t powers44_ = 0;
  std::uint64_t h44_[3]{};
  std::uint8_t s_[16]{};
  std::uint8_t buffer_[16]{};
  std::size_t buffer_len_ = 0;
};

}  // namespace gfwsim::crypto
