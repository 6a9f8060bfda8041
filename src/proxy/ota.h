// "One-time auth" (OTA) — the 2015 attempt to patch the stream
// construction's missing integrity (paper section 2.1).
//
// The client signals OTA by setting 0x10 in the address-type byte. The
// header gains a truncated HMAC-SHA1, keyed by IV || master key:
//   [atyp|0x10][addr][port][HMAC-SHA1(IV||key, header)[0..10)]
// and each subsequent chunk is authenticated individually, keyed by
// IV || chunk index:
//   [2-byte length][HMAC-SHA1(IV||index, data)[0..10)][data]
//
// The flaw the paper recounts: THE LENGTH PREFIX IS NOT AUTHENTICATED.
// An active prober can tamper with a length byte and observe the server
// stall waiting for data that never existed — a behavioural oracle that
// helped justify deprecating OTA in favour of AEAD in February 2017.
#pragma once

#include <optional>

#include "crypto/bytes.h"
#include "proxy/cipher.h"
#include "proxy/stream_crypto.h"
#include "proxy/target.h"

namespace gfwsim::proxy {

inline constexpr std::uint8_t kOtaFlag = 0x10;
inline constexpr std::size_t kOtaTagLen = 10;

// HMAC-SHA1(key = IV || master_key, header)[0..10).
Bytes ota_header_tag(ByteSpan iv, ByteSpan master_key, ByteSpan header_plaintext);

// HMAC-SHA1(key = IV || be32(chunk_index), data)[0..10).
Bytes ota_chunk_tag(ByteSpan iv, std::uint32_t chunk_index, ByteSpan data);

// Client-side writer: emits [IV][E(header+tag)] first, then authenticated
// chunks.
class OtaWriter {
 public:
  OtaWriter(const CipherSpec& spec, ByteSpan master_key, ByteSpan iv);

  // First flight: OTA-flagged target header with its tag, plus the first
  // data chunk if `initial_data` is non-empty.
  Bytes first_packet(const TargetSpec& target, ByteSpan initial_data);

  // Subsequent authenticated chunk.
  Bytes chunk(ByteSpan data);

 private:
  Bytes master_key_;
  Bytes iv_;
  StreamSession encryptor_;
  std::uint32_t chunk_index_ = 0;
  bool header_sent_ = false;
};

// Server-side incremental reader.
class OtaReader {
 public:
  enum class Status {
    kNeedMore,
    kHeaderOk,    // target parsed and authenticated; `target()` valid
    kData,        // one or more chunks verified; payload appended to out
    kAuthError,   // header or chunk tag mismatch
  };

  OtaReader(const CipherSpec& spec, ByteSpan master_key, ByteSpan iv,
            ByteSpan already_decrypted);

  // Feeds DECRYPTED plaintext bytes (the caller owns the stream cipher).
  Status feed(ByteSpan plaintext, Bytes& out);

  const TargetSpec& target() const { return target_; }
  // Bytes the reader is stalled waiting for (the tampered-length oracle).
  std::size_t pending_need() const;

 private:
  Bytes master_key_;
  Bytes iv_;
  Bytes buffer_;
  TargetSpec target_;
  bool header_done_ = false;
  std::uint32_t chunk_index_ = 0;
  std::optional<std::size_t> pending_len_;
};

}  // namespace gfwsim::proxy
