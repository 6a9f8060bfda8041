// SHA-1 (FIPS 180-4).
//
// Shadowsocks AEAD session keys are derived with HKDF-SHA1 (the protocol
// whitepaper fixes the hash), so SHA-1 is required for wire compatibility.
//
// Whole blocks go to the SHA-NI kernel when sha1_dispatch_tier() is kSimd
// (crypto/cpu.h) and to the scalar compression otherwise; both give the
// same digest.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"

namespace gfwsim::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1() { reset(); }

  void reset();
  void update(ByteSpan data);
  Digest finish();

  static Digest hash(ByteSpan data) {
    Sha1 h;
    h.update(data);
    return h.finish();
  }

 private:
  // Compresses n whole blocks with the dispatched kernel.
  void process_blocks(const std::uint8_t* blocks, std::size_t n);
  // The scalar compression: the reference and portable tiers.
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

inline Bytes sha1(ByteSpan data) {
  const auto d = Sha1::hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace gfwsim::crypto
