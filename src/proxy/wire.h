// Directional wire codecs tying the two constructions together.
//
// An Encryptor produces one direction of a Shadowsocks byte stream
// (emitting the IV/salt in front of its first output); a Decryptor
// consumes one. These are the spec-compliant paths used by clients, by
// servers' response direction, and by the hardened defense server. The
// version-specific server models in src/servers deliberately re-implement
// the receive path with their historical buffering quirks.
#pragma once

#include <memory>
#include <optional>
#include <variant>

#include "crypto/bytes.h"
#include "crypto/rng.h"
#include "proxy/aead_crypto.h"
#include "proxy/cipher.h"
#include "proxy/stream_crypto.h"
#include "proxy/target.h"

namespace gfwsim::proxy {

Bytes master_key(const CipherSpec& spec, std::string_view password);

class Encryptor {
 public:
  // The IV/salt is drawn from `rng` immediately and prepended to the
  // first encrypt() output.
  Encryptor(const CipherSpec& spec, ByteSpan key, crypto::Rng& rng);

  Bytes encrypt(ByteSpan plaintext);

  // IV (stream) or salt (AEAD) chosen for this direction.
  const Bytes& iv_or_salt() const { return iv_or_salt_; }

 private:
  const CipherSpec& spec_;
  Bytes iv_or_salt_;
  bool header_sent_ = false;
  std::variant<std::monostate, StreamSession, AeadChunkWriter> state_;
};

class Decryptor {
 public:
  enum class Status { kNeedMore, kData, kAuthError };

  Decryptor(const CipherSpec& spec, ByteSpan key);

  // Feeds ciphertext; appends any decrypted bytes to `out`.
  Status feed(ByteSpan in, Bytes& out);

  bool header_received() const;
  // IV (stream) / salt (AEAD) seen on the wire; empty until received.
  const Bytes& iv_or_salt() const;

 private:
  const CipherSpec& spec_;
  Bytes key_;
  Bytes iv_;
  Bytes iv_buffer_;  // stream IV bytes seen so far, until it is complete
  std::optional<StreamSession> stream_;
  std::optional<AeadChunkReader> aead_;
};

// The client's first flight:
//   stream: [IV][E(target || initial_data)]
//   AEAD (classic): [salt][chunk(target)][chunk(initial_data)]
//   AEAD (merged):  [salt][chunk(target || initial_data)]
// `merge_header_and_data` models the July 2020 OutlineVPN change (paper
// section 11) that made first-packet lengths variable.
Bytes build_first_packet(Encryptor& enc, const TargetSpec& target, ByteSpan initial_data,
                         bool merge_header_and_data);

}  // namespace gfwsim::proxy
