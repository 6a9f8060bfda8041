#include "crypto/chacha20_poly1305.h"

#include <stdexcept>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace gfwsim::crypto {

namespace {

// MAC input: aad || pad16 || ciphertext || pad16 || le64(len aad) || le64(len ct).
Poly1305::Tag compute_tag(ByteSpan poly_key, ByteSpan aad, ByteSpan ciphertext) {
  Poly1305 mac(poly_key);
  static constexpr std::uint8_t kZeros[16] = {};
  mac.update(aad);
  if (aad.size() % 16 != 0) mac.update(ByteSpan(kZeros, 16 - aad.size() % 16));
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0) mac.update(ByteSpan(kZeros, 16 - ciphertext.size() % 16));
  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  mac.update(ByteSpan(lengths, 16));
  return mac.finish();
}

// Takes block 0 of the counter-0 stream as the Poly1305 key (its first 32
// bytes) and leaves the stream at counter 1. The stream is told the op's
// whole keystream up front, so one pass sized to it covers both.
ChaCha20 start_stream(ByteSpan key, ByteSpan nonce, std::size_t message_len,
                      std::uint8_t block0[64]) {
  ChaCha20 stream(key, nonce, 0);
  stream.expect(64 + message_len);
  std::memset(block0, 0, 64);
  stream.transform(ByteSpan(block0, 64), block0);
  return stream;
}

}  // namespace

ChaCha20Poly1305::ChaCha20Poly1305(ByteSpan key) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("ChaCha20Poly1305: key must be 32 bytes");
  }
  std::memcpy(key_.data(), key.data(), kKeySize);
}

void ChaCha20Poly1305::seal_into(ByteSpan nonce, ByteSpan plaintext, std::uint8_t* out,
                                 ByteSpan aad) const {
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("ChaCha20Poly1305: nonce must be 12 bytes");
  }
  std::uint8_t block0[64];
  ChaCha20 stream = start_stream(key_, nonce, plaintext.size(), block0);
  stream.transform(plaintext, out);

  const auto tag = compute_tag(ByteSpan(block0, 32), aad, ByteSpan(out, plaintext.size()));
  std::memcpy(out + plaintext.size(), tag.data(), kTagSize);
}

Bytes ChaCha20Poly1305::seal(ByteSpan nonce, ByteSpan plaintext, ByteSpan aad) const {
  Bytes out(plaintext.size() + kTagSize);
  seal_into(nonce, plaintext, out.data(), aad);
  return out;
}

bool ChaCha20Poly1305::open_into(ByteSpan nonce, ByteSpan sealed, std::uint8_t* out,
                                 ByteSpan aad) const {
  if (nonce.size() != kNonceSize || sealed.size() < kTagSize) return false;
  const std::size_t ct_len = sealed.size() - kTagSize;
  const ByteSpan ciphertext = sealed.subspan(0, ct_len);
  const ByteSpan tag = sealed.subspan(ct_len);

  std::uint8_t block0[64];
  ChaCha20 stream = start_stream(key_, nonce, ct_len, block0);
  const auto expected = compute_tag(ByteSpan(block0, 32), aad, ciphertext);
  if (!ct_equal(ByteSpan(expected.data(), expected.size()), tag)) return false;

  stream.transform(ciphertext, out);
  return true;
}

std::optional<Bytes> ChaCha20Poly1305::open(ByteSpan nonce, ByteSpan sealed,
                                            ByteSpan aad) const {
  if (sealed.size() < kTagSize) return std::nullopt;
  Bytes plaintext(sealed.size() - kTagSize);
  if (!open_into(nonce, sealed, plaintext.data(), aad)) return std::nullopt;
  return plaintext;
}

}  // namespace gfwsim::crypto
