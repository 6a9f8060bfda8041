#include "proxy/stream_crypto.h"

#include <memory>
#include <stdexcept>
#include <variant>

#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/kdf.h"
#include "crypto/md5.h"
#include "crypto/rc4.h"

namespace gfwsim::proxy {

namespace {
using crypto::AesCfb;
using crypto::AesCtr;
using crypto::ChaCha20;
using crypto::Rc4;
}  // namespace

struct StreamSession::Impl {
  // ChaCha20 carries a whole pass of keystream (up to 1 KiB), so it sits
  // behind a pointer rather than sizing every AES and RC4 session to it.
  std::variant<AesCtr, AesCfb, Rc4, std::unique_ptr<ChaCha20>> cipher;
  Direction direction;

  Bytes process(ByteSpan data) {
    Bytes out(data.size());
    std::visit(
        [&](auto& c) {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, AesCfb>) {
            if (direction == Direction::kEncrypt) {
              c.encrypt(data, out.data());
            } else {
              c.decrypt(data, out.data());
            }
          } else if constexpr (std::is_same_v<T, std::unique_ptr<ChaCha20>>) {
            c->transform(data, out.data());
          } else {
            c.transform(data, out.data());
          }
        },
        cipher);
    return out;
  }
};

StreamSession::StreamSession(const CipherSpec& spec, ByteSpan key, ByteSpan iv,
                             Direction direction) {
  if (spec.kind != CipherKind::kStream) {
    throw std::invalid_argument("StreamSession: not a stream cipher method");
  }
  if (key.size() != spec.key_len || iv.size() != spec.iv_len) {
    throw std::invalid_argument("StreamSession: bad key or IV length");
  }

  impl_ = std::make_unique<Impl>([&]() -> Impl {
    switch (spec.algo) {
      case CipherAlgo::kAesCtr:
        return Impl{AesCtr(key, iv), direction};
      case CipherAlgo::kAesCfb:
        return Impl{AesCfb(key, iv), direction};
      case CipherAlgo::kRc4Md5: {
        // rc4-md5 session key = MD5(master key || IV).
        const Bytes session_key = crypto::md5(concat(key, iv));
        return Impl{Rc4(session_key), direction};
      }
      case CipherAlgo::kChaCha20:
      case CipherAlgo::kChaCha20Ietf:
        return Impl{std::make_unique<ChaCha20>(key, iv), direction};
      default:
        throw std::invalid_argument("StreamSession: AEAD algo in stream construction");
    }
  }());
}

StreamSession::~StreamSession() = default;
StreamSession::StreamSession(StreamSession&&) noexcept = default;
StreamSession& StreamSession::operator=(StreamSession&&) noexcept = default;

Bytes StreamSession::process(ByteSpan data) { return impl_->process(data); }

Bytes stream_master_key(const CipherSpec& spec, std::string_view password) {
  return crypto::evp_bytes_to_key(password, spec.key_len);
}

}  // namespace gfwsim::proxy
