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

  // Announces that the next `bytes` of keystream will be used, over
  // however many transform calls, so a refill can size its pass to all of
  // it rather than to the call at hand. Output does not depend on it.
  void expect(std::size_t bytes) { expected_ = bytes; }

  Bytes transform(ByteSpan data) {
    Bytes out(data.size());
    transform(data, out.data());
    return out;
  }

 private:
  // Refills keystream_ with one dispatched pass of consecutive blocks and
  // moves the counter past them: 1 on the reference tier, 4 on portable
  // and SSE2, 8 on AVX2, and on AVX-512 the narrowest of 4, 8 or 16 that
  // covers the `want` bytes still to come. Only the pass length differs
  // between tiers.
  void refill(std::size_t want);

  std::array<std::uint32_t, 16> state_{};
  // Written by refill() before any read, so left uninitialized: zeroing
  // 1 KiB would cost every AEAD op, length chunks included.
  std::array<std::uint8_t, 1024> keystream_;
  std::size_t used_ = 0;
  std::size_t avail_ = 0;
  std::size_t expected_ = 0;  // bytes announced by expect() and not yet used
  bool ietf_ = true;
};

}  // namespace gfwsim::crypto
