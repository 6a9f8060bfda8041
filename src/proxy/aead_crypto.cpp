#include "proxy/aead_crypto.h"

#include <array>
#include <stdexcept>
#include <variant>

#include "crypto/chacha20_poly1305.h"
#include "crypto/gcm.h"
#include "crypto/hkdf.h"
#include "crypto/kdf.h"

namespace gfwsim::proxy {

namespace {
using crypto::AesGcm;
using crypto::ChaCha20Poly1305;

constexpr std::size_t kNonceLen = 12;
}  // namespace

struct AeadSession::Impl {
  std::variant<AesGcm, ChaCha20Poly1305> aead;
  std::uint64_t counter = 0;

  std::array<std::uint8_t, kNonceLen> nonce() const {
    std::array<std::uint8_t, kNonceLen> n{};
    store_le64(n.data(), counter);
    return n;
  }

  Bytes seal(ByteSpan plaintext) {
    const auto n = nonce();
    Bytes out = std::visit([&](const auto& a) { return a.seal(n, plaintext); }, aead);
    ++counter;
    return out;
  }

  std::optional<Bytes> open(ByteSpan sealed) {
    const auto n = nonce();
    auto out = std::visit([&](const auto& a) { return a.open(n, sealed); }, aead);
    if (out.has_value()) ++counter;
    return out;
  }
};

AeadSession::AeadSession(const CipherSpec& spec, ByteSpan master_key, ByteSpan salt) {
  if (spec.kind != CipherKind::kAead) {
    throw std::invalid_argument("AeadSession: not an AEAD method");
  }
  if (master_key.size() != spec.key_len || salt.size() != spec.iv_len) {
    throw std::invalid_argument("AeadSession: bad key or salt length");
  }
  const Bytes subkey = crypto::ss_subkey(master_key, salt);
  switch (spec.algo) {
    case CipherAlgo::kAesGcm:
      impl_ = std::make_unique<Impl>(Impl{AesGcm(subkey), 0});
      break;
    case CipherAlgo::kChaCha20Poly1305:
      impl_ = std::make_unique<Impl>(Impl{ChaCha20Poly1305(subkey), 0});
      break;
    default:
      throw std::invalid_argument("AeadSession: stream algo in AEAD construction");
  }
}

AeadSession::~AeadSession() = default;
AeadSession::AeadSession(AeadSession&&) noexcept = default;
AeadSession& AeadSession::operator=(AeadSession&&) noexcept = default;

Bytes AeadSession::seal(ByteSpan plaintext) { return impl_->seal(plaintext); }
std::optional<Bytes> AeadSession::open(ByteSpan sealed) { return impl_->open(sealed); }
std::uint64_t AeadSession::nonce_counter() const { return impl_->counter; }

Bytes AeadChunkWriter::encode(ByteSpan payload) {
  Bytes out;
  // Exact output size: per chunk, a sealed length field (2 + tag) plus the
  // sealed chunk (payload + tag). Sizing up front keeps the multi-chunk
  // path to a single allocation.
  const std::size_t chunks =
      payload.empty() ? 1 : (payload.size() + kAeadMaxChunkPayload - 1) / kAeadMaxChunkPayload;
  out.reserve(payload.size() + chunks * (kAeadLenFieldLen + 2 * kAeadTagLen));
  std::size_t offset = 0;
  do {
    const std::size_t take =
        std::min<std::size_t>(kAeadMaxChunkPayload, payload.size() - offset);
    std::uint8_t len_field[kAeadLenFieldLen];
    store_be16(len_field, static_cast<std::uint16_t>(take));
    append(out, session_.seal(ByteSpan(len_field, kAeadLenFieldLen)));
    append(out, session_.seal(payload.subspan(offset, take)));
    offset += take;
  } while (offset < payload.size());
  return out;
}

AeadChunkReader::AeadChunkReader(const CipherSpec& spec, ByteSpan master_key)
    : spec_(spec), master_key_(master_key.begin(), master_key.end()) {}

AeadChunkReader::Status AeadChunkReader::feed(ByteSpan in, Bytes& out) {
  if (failed_) return Status::kAuthError;
  append(buffer_, in);

  if (!session_) {
    if (buffer_.size() < spec_.iv_len) return Status::kNeedMore;
    salt_.assign(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(spec_.iv_len));
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(spec_.iv_len));
    session_ = std::make_unique<AeadSession>(spec_, master_key_, salt_);
  }

  bool produced = false;
  for (;;) {
    if (!pending_payload_len_) {
      const std::size_t need = kAeadLenFieldLen + kAeadTagLen;
      if (buffer_.size() < need) break;
      const auto opened = session_->open(ByteSpan(buffer_.data(), need));
      if (!opened) {
        failed_ = true;
        return Status::kAuthError;
      }
      const std::size_t len = load_be16(opened->data()) & kAeadMaxChunkPayload;
      pending_payload_len_ = len;
      buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(need));
    }
    const std::size_t need = *pending_payload_len_ + kAeadTagLen;
    if (buffer_.size() < need) break;
    const auto opened = session_->open(ByteSpan(buffer_.data(), need));
    if (!opened) {
      failed_ = true;
      return Status::kAuthError;
    }
    append(out, *opened);
    produced = true;
    pending_payload_len_.reset();
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(need));
  }
  return produced ? Status::kData : Status::kNeedMore;
}

Bytes aead_master_key(const CipherSpec& spec, std::string_view password) {
  return crypto::evp_bytes_to_key(password, spec.key_len);
}

}  // namespace gfwsim::proxy
