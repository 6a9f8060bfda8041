// The Shadowsocks AEAD construction (2017 protocol revision):
//   [salt][2-byte length ct][16-byte tag][payload ct][16-byte tag]...
// Per-direction session subkey = HKDF-SHA1(master, salt, "ss-subkey").
// Nonce is a little-endian counter incremented once per seal/open
// operation (so a chunk consumes two nonces: length, then payload).
// Length chunks encode at most 0x3FFF payload bytes.
#pragma once

#include <memory>
#include <optional>

#include "crypto/bytes.h"
#include "proxy/cipher.h"

namespace gfwsim::proxy {

inline constexpr std::size_t kAeadTagLen = 16;
inline constexpr std::size_t kAeadLenFieldLen = 2;
inline constexpr std::size_t kAeadMaxChunkPayload = 0x3fff;

// Low-level per-direction AEAD session: seal/open with the internal nonce
// counter. Servers and clients compose framing on top of this.
class AeadSession {
 public:
  // Derives the subkey from the wire salt; `master_key` length must equal
  // spec.key_len and `salt` length spec.iv_len.
  AeadSession(const CipherSpec& spec, ByteSpan master_key, ByteSpan salt);
  ~AeadSession();
  AeadSession(AeadSession&&) noexcept;
  AeadSession& operator=(AeadSession&&) noexcept;

  // Seals `plaintext` into out[0, plaintext.size() + kAeadTagLen) as
  // ciphertext||tag and increments the nonce.
  void seal_into(ByteSpan plaintext, std::uint8_t* out);
  Bytes seal(ByteSpan plaintext);

  // Opens ciphertext||tag into out[0, sealed.size() - kAeadTagLen). On
  // success increments the nonce; on failure returns false, releases no
  // plaintext, and leaves the nonce unchanged (so a retry with more data
  // is possible). `out` must not overlap `sealed`.
  bool open_into(ByteSpan sealed, std::uint8_t* out);
  std::optional<Bytes> open(ByteSpan sealed);

  std::uint64_t nonce_counter() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Sender-side framing: one chunk = sealed length || sealed payload.
class AeadChunkWriter {
 public:
  AeadChunkWriter(const CipherSpec& spec, ByteSpan master_key, ByteSpan salt)
      : session_(spec, master_key, salt) {}

  // Splits arbitrarily long payloads into <= kAeadMaxChunkPayload chunks.
  Bytes encode(ByteSpan payload);

 private:
  AeadSession session_;
};

// Receiver-side framing: incremental chunk decoder.
//
// Chunks are opened straight from the fed bytes; only a trailing partial
// chunk is copied aside, and that buffer is released once it drains.
//
// This is the *spec-compliant* reader (used by clients and the hardened
// server). The version-specific server models implement their own buffering
// policies directly on AeadSession, because their divergent wait thresholds
// are precisely what the GFW fingerprints (Figure 10b).
class AeadChunkReader {
 public:
  AeadChunkReader(const CipherSpec& spec, ByteSpan master_key);

  enum class Status {
    kNeedMore,   // keep feeding
    kData,       // one or more chunks decoded into `out`
    kAuthError,  // tag verification failed; stream is dead
  };

  // Decodes as many complete chunks as the buffered bytes plus `in` hold
  // into `out` (appended), and buffers the incomplete remainder.
  Status feed(ByteSpan in, Bytes& out);

  bool salt_received() const { return session_ != nullptr; }
  // Bytes held back for an incomplete salt or chunk; 0 at a chunk boundary.
  std::size_t buffered() const { return buffer_.size(); }
  // Salt observed on the wire (empty until received); replay filters key
  // on this value.
  const Bytes& salt() const { return salt_; }

 private:
  const CipherSpec& spec_;
  Bytes master_key_;
  Bytes salt_;
  Bytes buffer_;
  std::unique_ptr<AeadSession> session_;
  std::optional<std::size_t> pending_payload_len_;
  bool failed_ = false;
};

Bytes aead_master_key(const CipherSpec& spec, std::string_view password);

}  // namespace gfwsim::proxy
