// HKDF (RFC 5869), generic over the library's hash implementations.
//
// Shadowsocks AEAD derives per-session subkeys as
//   subkey = HKDF-SHA1(key = master, salt = wire salt, info = "ss-subkey")
// with output length equal to the master key length.
#pragma once

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"

namespace gfwsim::crypto {

// HKDF-Extract. Per RFC 5869, an absent salt is a string of kDigestSize
// zero bytes.
template <typename H>
typename H::Digest hkdf_prk(ByteSpan salt, ByteSpan ikm) {
  static constexpr std::array<std::uint8_t, H::kDigestSize> kZeroSalt{};
  return Hmac<H>::mac(salt.empty() ? ByteSpan(kZeroSalt) : salt, ikm);
}

template <typename H>
Bytes hkdf_extract(ByteSpan salt, ByteSpan ikm) {
  const auto prk = hkdf_prk<H>(salt, ikm);
  return Bytes(prk.begin(), prk.end());
}

// HKDF-Expand into `length` bytes at `out`, with no heap allocation.
template <typename H>
void hkdf_expand_into(ByteSpan prk, ByteSpan info, std::uint8_t* out, std::size_t length) {
  if (length > 255 * H::kDigestSize) {
    throw std::invalid_argument("hkdf_expand: requested length too large");
  }
  typename H::Digest block{};
  std::uint8_t counter = 1;
  // One keyed instance for the whole expansion: finish() rewinds to the
  // precomputed ipad state, so later blocks skip the keying compressions
  // entirely (per-connection ss_subkey derivation runs this loop twice).
  Hmac<H> mac(prk);
  for (std::size_t done = 0; done < length; done += block.size(), ++counter) {
    if (done > 0) mac.update(block);
    mac.update(info);
    mac.update(ByteSpan(&counter, 1));
    block = mac.finish();
    std::memcpy(out + done, block.data(), std::min(block.size(), length - done));
  }
}

template <typename H>
Bytes hkdf_expand(ByteSpan prk, ByteSpan info, std::size_t length) {
  if (length > 255 * H::kDigestSize) {
    throw std::invalid_argument("hkdf_expand: requested length too large");
  }
  Bytes okm(length);
  hkdf_expand_into<H>(prk, info, okm.data(), length);
  return okm;
}

template <typename H>
Bytes hkdf(ByteSpan ikm, ByteSpan salt, ByteSpan info, std::size_t length) {
  return hkdf_expand<H>(hkdf_prk<H>(salt, ikm), info, length);
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
