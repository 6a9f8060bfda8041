// ChaCha20-Poly1305 AEAD (RFC 8439 section 2.8).
//
// This is the only cipher OutlineVPN supports ("chacha20-ietf-poly1305",
// 32-byte key and salt) and the most common Shadowsocks AEAD method.
#pragma once

#include <array>
#include <optional>

#include "crypto/bytes.h"

namespace gfwsim::crypto {

class ChaCha20Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  explicit ChaCha20Poly1305(ByteSpan key);

  // Writes ciphertext || 16-byte tag to out[0, plaintext.size() + 16).
  void seal_into(ByteSpan nonce, ByteSpan plaintext, std::uint8_t* out,
                 ByteSpan aad = {}) const;
  // Returns ciphertext || 16-byte tag.
  Bytes seal(ByteSpan nonce, ByteSpan plaintext, ByteSpan aad = {}) const;

  // Input is ciphertext || tag. Writes the plaintext to
  // out[0, sealed.size() - 16) and returns true, or returns false on
  // authentication failure without writing to `out`.
  bool open_into(ByteSpan nonce, ByteSpan sealed, std::uint8_t* out, ByteSpan aad = {}) const;
  // Returns the plaintext; nullopt on authentication failure.
  std::optional<Bytes> open(ByteSpan nonce, ByteSpan sealed, ByteSpan aad = {}) const;

 private:
  std::array<std::uint8_t, kKeySize> key_{};
};

}  // namespace gfwsim::crypto
