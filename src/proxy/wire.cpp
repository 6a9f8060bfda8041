#include "proxy/wire.h"

#include "crypto/kdf.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gfwsim::proxy {

Bytes master_key(const CipherSpec& spec, std::string_view password) {
  return crypto::evp_bytes_to_key(password, spec.key_len);
}

Encryptor::Encryptor(const CipherSpec& spec, ByteSpan key, crypto::Rng& rng) : spec_(spec) {
  iv_or_salt_ = rng.bytes(spec.iv_len);
  if (spec.kind == CipherKind::kStream) {
    state_.emplace<StreamSession>(spec, key, iv_or_salt_, StreamSession::Direction::kEncrypt);
  } else {
    state_.emplace<AeadChunkWriter>(spec, key, iv_or_salt_);
  }
}

Bytes Encryptor::encrypt(ByteSpan plaintext) {
  Bytes out;
  if (!header_sent_) {
    out = iv_or_salt_;
    header_sent_ = true;
  }
  if (auto* stream = std::get_if<StreamSession>(&state_)) {
    append(out, stream->process(plaintext));
  } else {
    append(out, std::get<AeadChunkWriter>(state_).encode(plaintext));
  }
  return out;
}

Decryptor::Decryptor(const CipherSpec& spec, ByteSpan key)
    : spec_(spec), key_(key.begin(), key.end()) {
  if (spec.kind == CipherKind::kAead) aead_.emplace(spec, key_);
}

bool Decryptor::header_received() const {
  if (aead_) return aead_->salt_received();
  return stream_.has_value();
}

const Bytes& Decryptor::iv_or_salt() const {
  if (aead_) return aead_->salt();
  return iv_;
}

Decryptor::Status Decryptor::feed(ByteSpan in, Bytes& out) {
  if (aead_) {
    switch (aead_->feed(in, out)) {
      case AeadChunkReader::Status::kNeedMore: return Status::kNeedMore;
      case AeadChunkReader::Status::kData: return Status::kData;
      case AeadChunkReader::Status::kAuthError: return Status::kAuthError;
    }
  }

  // Stream construction: collect the IV, then decrypt straight from `in`.
  if (!stream_) {
    const std::size_t take = std::min(spec_.iv_len - iv_buffer_.size(), in.size());
    iv_buffer_.insert(iv_buffer_.end(), in.begin(),
                      in.begin() + static_cast<std::ptrdiff_t>(take));
    in = in.subspan(take);
    if (iv_buffer_.size() < spec_.iv_len) return Status::kNeedMore;
    iv_ = std::exchange(iv_buffer_, Bytes());
    stream_.emplace(spec_, key_, iv_, StreamSession::Direction::kDecrypt);
  }
  if (in.empty()) return Status::kNeedMore;
  append(out, stream_->process(in));
  return Status::kData;
}

Bytes build_first_packet(Encryptor& enc, const TargetSpec& target, ByteSpan initial_data,
                         bool merge_header_and_data) {
  const Bytes header = encode_target(target);
  if (merge_header_and_data || initial_data.empty()) {
    return enc.encrypt(concat(header, initial_data));
  }
  Bytes out = enc.encrypt(header);
  append(out, enc.encrypt(initial_data));
  return out;
}

}  // namespace gfwsim::proxy
