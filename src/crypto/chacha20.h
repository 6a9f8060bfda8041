// ChaCha20 stream cipher.
//
// Two variants are needed for Shadowsocks:
//   * IETF (RFC 8439): 12-byte nonce, 32-bit block counter — methods
//     "chacha20-ietf" (stream construction) and the keystream inside
//     "chacha20-ietf-poly1305" (AEAD construction).
//   * Legacy (djb original): 8-byte nonce, 64-bit block counter — the
//     deprecated "chacha20" stream method.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "crypto/bytes.h"

namespace gfwsim::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;

  // Nonce must be 12 bytes (IETF) or 8 bytes (legacy); the variant is
  // selected by the nonce length, mirroring libsodium's API split.
  ChaCha20(ByteSpan key, ByteSpan nonce, std::uint64_t initial_counter = 0);

  // XOR keystream into data; stateful across calls.
  void transform(ByteSpan data, std::uint8_t* out);

  Bytes transform(ByteSpan data) {
    Bytes out(data.size());
    transform(data, out.data());
    return out;
  }

 private:
  // Refills keystream_ with one dispatched pass of consecutive blocks (1
  // on the reference tier, 4 on portable and SSE2, 8 on AVX2) and moves
  // the counter past them. Only the pass length differs between tiers.
  void refill();

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, 512> keystream_{};
  std::size_t used_ = 0;
  std::size_t avail_ = 0;
  bool ietf_ = true;
};

}  // namespace gfwsim::crypto
