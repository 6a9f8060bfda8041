// AES block cipher (FIPS 197), encryption direction only.
//
// Every AES mode Shadowsocks uses (CTR, CFB, GCM) needs only the forward
// block transform, so the inverse cipher is deliberately not implemented.
// encrypt_block()/encrypt_blocks() dispatch through the kernel-tier
// harness (crypto/cpu.h): the SIMD tier runs 8 interleaved AESENC chains
// (aes_x86.cpp), the portable tier a T-table kernel (four 1 KiB constexpr
// tables fusing SubBytes/ShiftRows/MixColumns into four word lookups per
// column per round, batched two blocks at a time), and the reference tier
// the original byte-oriented implementation behind
// encrypt_block_reference(). All tiers are cross-checked bit-for-bit by
// tests/crypto/kernels_test.cpp and wide_kernels_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "crypto/bytes.h"

namespace gfwsim::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  using Block = std::array<std::uint8_t, kBlockSize>;

  // Key must be 16, 24, or 32 bytes (AES-128/192/256).
  explicit Aes(ByteSpan key);

  void encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const;

  Block encrypt_block(const Block& in) const {
    Block out;
    encrypt_block(in.data(), out.data());
    return out;
  }

  // Encrypts n independent, contiguous 16-byte blocks. On the SIMD tier
  // this runs 8 interleaved AESENC chains per pass; the portable tier
  // interleaves two T-table blocks; the reference tier loops the
  // byte-oriented kernel. All tiers produce identical bytes.
  void encrypt_blocks(const std::uint8_t* in, std::uint8_t* out, std::size_t n) const;

  // The retained byte-oriented kernel (SubBytes/ShiftRows/MixColumns as
  // written in FIPS 197); bit-identical to the T-table path.
  void encrypt_block_reference(const std::uint8_t in[kBlockSize],
                               std::uint8_t out[kBlockSize]) const;

  Block encrypt_block_reference(const Block& in) const {
    Block out;
    encrypt_block_reference(in.data(), out.data());
    return out;
  }

  int rounds() const { return rounds_; }

  // The expanded key, (rounds() + 1) * 16 bytes; public so tests can
  // check it against FIPS 197 Appendix A.
  ByteSpan round_keys() const {
    return {round_keys_.data(), kBlockSize * static_cast<std::size_t>(rounds_ + 1)};
  }

 private:
  void expand_key(ByteSpan key);
  void encrypt_ttable(const std::uint8_t* in, std::uint8_t* out) const;
  void encrypt2_ttable(const std::uint8_t* in, std::uint8_t* out) const;

  // Round keys: (rounds_ + 1) * 16 bytes, plus the same schedule as
  // big-endian words for the T-table kernel (expand_key builds the words
  // and stores the bytes from them).
  std::array<std::uint8_t, 15 * 16> round_keys_{};
  std::array<std::uint32_t, 15 * 4> round_keys_w_{};
  int rounds_ = 0;
};

// AES in CTR mode with a big-endian counter over the full 16-byte block,
// matching OpenSSL's behaviour for the "aes-*-ctr" Shadowsocks methods.
// Stateful: successive calls continue the keystream.
class AesCtr {
 public:
  AesCtr(ByteSpan key, ByteSpan iv);

  // XORs `data` into `out` (in == out allowed). Encryption == decryption.
  void transform(ByteSpan data, std::uint8_t* out);

  Bytes transform(ByteSpan data) {
    Bytes out(data.size());
    transform(data, out.data());
    return out;
  }

 private:
  void refill();

  Aes aes_;
  Aes::Block counter_{};
  Aes::Block keystream_{};
  std::size_t used_ = Aes::kBlockSize;
};

// AES in 128-bit CFB mode (OpenSSL "aes-*-cfb"), stateful across calls.
// Unlike CTR, encryption and decryption differ. Encryption is serial
// (each keystream block is E(previous ciphertext block)): one
// encrypt_block per block, xor and feedback 8 bytes at a time. Decryption
// knows every E input up front, so whole blocks go up to 8 at a time
// through encrypt_blocks (8 AESENC chains on the SIMD tier). Byte loops
// remain only for a partial block at either end of a call. `out` may
// equal the input (in place) or not overlap it.
class AesCfb {
 public:
  AesCfb(ByteSpan key, ByteSpan iv);

  void encrypt(ByteSpan plaintext, std::uint8_t* out);
  void decrypt(ByteSpan ciphertext, std::uint8_t* out);

  Bytes encrypt(ByteSpan plaintext) {
    Bytes out(plaintext.size());
    encrypt(plaintext, out.data());
    return out;
  }
  Bytes decrypt(ByteSpan ciphertext) {
    Bytes out(ciphertext.size());
    decrypt(ciphertext, out.data());
    return out;
  }

 private:
  Aes aes_;
  Aes::Block shift_register_{};
  Aes::Block keystream_{};
  std::size_t used_ = Aes::kBlockSize;
};

}  // namespace gfwsim::crypto
