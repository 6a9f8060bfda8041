// HKDF (RFC 5869), generic over the library's hash implementations.
//
// Shadowsocks AEAD derives per-session subkeys as
//   subkey = HKDF-SHA1(key = master, salt = wire salt, info = "ss-subkey")
// with output length equal to the master key length.
#pragma once

#include <stdexcept>

#include "crypto/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"

namespace gfwsim::crypto {

template <typename H>
Bytes hkdf_extract(ByteSpan salt, ByteSpan ikm) {
  // Per RFC 5869, an absent salt is a string of kDigestSize zero bytes.
  Bytes zero_salt(H::kDigestSize, 0);
  const ByteSpan effective_salt = salt.empty() ? ByteSpan(zero_salt) : salt;
  const auto prk = Hmac<H>::mac(effective_salt, ikm);
  return Bytes(prk.begin(), prk.end());
}

template <typename H>
Bytes hkdf_expand(ByteSpan prk, ByteSpan info, std::size_t length) {
  if (length > 255 * H::kDigestSize) {
    throw std::invalid_argument("hkdf_expand: requested length too large");
  }
  Bytes okm;
  okm.reserve(length);
  Bytes previous;
  std::uint8_t counter = 1;
  // One keyed instance for the whole expansion: finish() rewinds to the
  // precomputed ipad state, so later blocks skip the keying compressions
  // entirely (per-connection ss_subkey derivation runs this loop twice).
  Hmac<H> mac(prk);
  while (okm.size() < length) {
    mac.update(previous);
    mac.update(info);
    mac.update(ByteSpan(&counter, 1));
    const auto block = mac.finish();
    previous.assign(block.begin(), block.end());
    const std::size_t take = std::min(previous.size(), length - okm.size());
    okm.insert(okm.end(), previous.begin(), previous.begin() + take);
    ++counter;
  }
  return okm;
}

template <typename H>
Bytes hkdf(ByteSpan ikm, ByteSpan salt, ByteSpan info, std::size_t length) {
  return hkdf_expand<H>(hkdf_extract<H>(salt, ikm), info, length);
}

// The exact construction Shadowsocks AEAD uses for session subkeys. Both
// ends of a connection, and every GFW replay of its first packet, derive
// from the same (master, salt), so each thread keeps a fixed memo of
// kSsSubkeyMemoSlots direct-mapped slots (about 25 KiB). A hit needs the
// master key and salt to match byte for byte and returns HKDF's exact
// bytes; keys or salts over 32 bytes bypass it.
Bytes ss_subkey(ByteSpan master_key, ByteSpan salt);

inline constexpr std::size_t kSsSubkeyMemoSlots = 256;

// The memo slot `salt` maps to (exposed so tests can build collisions).
std::size_t ss_subkey_memo_slot(ByteSpan salt);

}  // namespace gfwsim::crypto
