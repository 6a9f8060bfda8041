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

  void seal_into(ByteSpan plaintext, std::uint8_t* out) {
    const auto n = nonce();
    std::visit([&](const auto& a) { a.seal_into(n, plaintext, out); }, aead);
    ++counter;
  }

  bool open_into(ByteSpan sealed, std::uint8_t* out) {
    const auto n = nonce();
    const bool ok = std::visit([&](const auto& a) { return a.open_into(n, sealed, out); }, aead);
    if (ok) ++counter;
    return ok;
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

void AeadSession::seal_into(ByteSpan plaintext, std::uint8_t* out) {
  impl_->seal_into(plaintext, out);
}

Bytes AeadSession::seal(ByteSpan plaintext) {
  Bytes out(plaintext.size() + kAeadTagLen);
  seal_into(plaintext, out.data());
  return out;
}

bool AeadSession::open_into(ByteSpan sealed, std::uint8_t* out) {
  return impl_->open_into(sealed, out);
}

std::optional<Bytes> AeadSession::open(ByteSpan sealed) {
  if (sealed.size() < kAeadTagLen) return std::nullopt;
  Bytes plaintext(sealed.size() - kAeadTagLen);
  if (!open_into(sealed, plaintext.data())) return std::nullopt;
  return plaintext;
}
std::uint64_t AeadSession::nonce_counter() const { return impl_->counter; }

Bytes AeadChunkWriter::encode(ByteSpan payload) {
  // Exact output size: per chunk, a sealed length field (2 + tag) plus the
  // sealed chunk (payload + tag). Both seal straight into their slots.
  const std::size_t chunks =
      payload.empty() ? 1 : (payload.size() + kAeadMaxChunkPayload - 1) / kAeadMaxChunkPayload;
  Bytes out(payload.size() + chunks * (kAeadLenFieldLen + 2 * kAeadTagLen));
  std::uint8_t* dst = out.data();
  std::size_t offset = 0;
  do {
    const std::size_t take =
        std::min<std::size_t>(kAeadMaxChunkPayload, payload.size() - offset);
    std::uint8_t len_field[kAeadLenFieldLen];
    store_be16(len_field, static_cast<std::uint16_t>(take));
    session_.seal_into(ByteSpan(len_field, kAeadLenFieldLen), dst);
    dst += kAeadLenFieldLen + kAeadTagLen;
    session_.seal_into(payload.subspan(offset, take), dst);
    dst += take + kAeadTagLen;
    offset += take;
  } while (offset < payload.size());
  return out;
}

AeadChunkReader::AeadChunkReader(const CipherSpec& spec, ByteSpan master_key)
    : spec_(spec), master_key_(master_key.begin(), master_key.end()) {}

AeadChunkReader::Status AeadChunkReader::feed(ByteSpan in, Bytes& out) {
  if (failed_) return Status::kAuthError;
  // The stream continues from the held-back partial chunk, if any;
  // otherwise it is read straight from `in`.
  const bool held = !buffer_.empty();
  if (held) append(buffer_, in);
  const ByteSpan data = held ? ByteSpan(buffer_) : in;
  std::size_t pos = 0;

  if (!session_ && data.size() >= spec_.iv_len) {
    salt_.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(spec_.iv_len));
    pos = spec_.iv_len;
    session_ = std::make_unique<AeadSession>(spec_, master_key_, salt_);
  }

  bool produced = false;
  while (session_) {
    if (!pending_payload_len_) {
      const std::size_t need = kAeadLenFieldLen + kAeadTagLen;
      if (data.size() - pos < need) break;
      std::uint8_t len_field[kAeadLenFieldLen];
      if (!session_->open_into(data.subspan(pos, need), len_field)) {
        failed_ = true;
        return Status::kAuthError;
      }
      pending_payload_len_ = load_be16(len_field) & kAeadMaxChunkPayload;
      pos += need;
    }
    const std::size_t need = *pending_payload_len_ + kAeadTagLen;
    if (data.size() - pos < need) break;
    const std::size_t at = out.size();
    out.resize(at + *pending_payload_len_);
    if (!session_->open_into(data.subspan(pos, need), out.data() + at)) {
      out.resize(at);
      failed_ = true;
      return Status::kAuthError;
    }
    produced = true;
    pending_payload_len_.reset();
    pos += need;
  }

  // Keep only the incomplete tail, and no capacity once nothing is held.
  if (pos == data.size()) {
    Bytes().swap(buffer_);
  } else if (held) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(pos));
  } else {
    buffer_.assign(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end());
  }
  return produced ? Status::kData : Status::kNeedMore;
}

Bytes aead_master_key(const CipherSpec& spec, std::string_view password) {
  return crypto::evp_bytes_to_key(password, spec.key_len);
}

}  // namespace gfwsim::proxy
