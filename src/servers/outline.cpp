#include "servers/outline.h"

#include <stdexcept>

#include "proxy/aead_crypto.h"
#include "proxy/target.h"

namespace gfwsim::servers {

struct OutlineServer::Session : ProxyServerBase::SessionBase {
  enum class Phase { kHeader, kProxying };
  Phase phase = Phase::kHeader;

  std::optional<proxy::AeadSession> ingress;
  Bytes salt;  // kept only until the server's replay filter learns it
  std::optional<std::size_t> pending_payload_len;
  Bytes plain;
};

OutlineServer::OutlineServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                             OutlineVersion version, std::uint64_t rng_seed)
    : ProxyServerBase(loop, std::move(config), upstream, rng_seed), version_(version) {
  if (config_.cipher->algo != proxy::CipherAlgo::kChaCha20Poly1305) {
    throw std::invalid_argument("OutlineServer: only chacha20-ietf-poly1305 is supported");
  }
  if (version_ == OutlineVersion::kV1_1_0) replay_filter_.emplace();
}

std::unique_ptr<ProxyServerBase::SessionBase> OutlineServer::make_session() {
  return std::make_unique<Session>();
}

void OutlineServer::auth_failure(Session& session) {
  if (version_ == OutlineVersion::kV1_0_6) {
    // Go closes the socket; the kernel sends FIN/ACK when everything was
    // read (probe length exactly salt+18 = 50) and RST when unread bytes
    // remain (longer probes). See Frolov et al. on close() vs RST.
    const bool consumed_all =
        session.buffer.size() <= proxy::kAeadLenFieldLen + proxy::kAeadTagLen;
    if (consumed_all) {
      close_session(session);
    } else {
      abort_session(session);
    }
    return;
  }
  // v1.0.7+: probing resistance via timeout — keep reading, never react.
  drain_session(session);
}

void OutlineServer::handle_data(SessionBase& base) {
  auto& session = static_cast<Session&>(base);
  const auto& spec = *config_.cipher;

  if (!session.ingress) {
    if (session.buffer.size() < spec.iv_len) return;  // awaiting salt
    const ByteSpan salt(session.buffer.data(), spec.iv_len);
    const bool replayed = replay_filter_ && replay_filter_->contains(salt);
    if (!replayed) {
      // The filter learns the salt once the first chunk authenticates.
      if (replay_filter_) session.salt.assign(salt.begin(), salt.end());
      session.ingress.emplace(spec, key_, salt);
    }
    session.buffer.erase(session.buffer.begin(),
                         session.buffer.begin() + static_cast<std::ptrdiff_t>(spec.iv_len));
    if (replayed) {
      drain_session(session);  // replay defense: indistinguishable timeout
      return;
    }
  }

  for (;;) {
    if (!session.pending_payload_len) {
      // Outline tries to parse [len][tag] as soon as those 18 bytes are in
      // (it does NOT wait for the extra payload tag like ss-libev does).
      const std::size_t need = proxy::kAeadLenFieldLen + proxy::kAeadTagLen;
      if (session.buffer.size() < need) return;
      const auto opened = session.ingress->open(ByteSpan(session.buffer.data(), need));
      if (!opened) {
        auth_failure(session);
        return;
      }
      if (!session.salt.empty()) {
        replay_filter_->insert(session.salt);
        session.salt = Bytes();
      }
      session.pending_payload_len = load_be16(opened->data()) & proxy::kAeadMaxChunkPayload;
      session.buffer.erase(session.buffer.begin(),
                           session.buffer.begin() + static_cast<std::ptrdiff_t>(need));
    }

    const std::size_t need = *session.pending_payload_len + proxy::kAeadTagLen;
    if (session.buffer.size() < need) return;
    const auto opened = session.ingress->open(ByteSpan(session.buffer.data(), need));
    if (!opened) {
      auth_failure(session);
      return;
    }
    append(session.plain, *opened);
    session.pending_payload_len.reset();
    session.buffer.erase(session.buffer.begin(),
                         session.buffer.begin() + static_cast<std::ptrdiff_t>(need));

    if (session.phase == Session::Phase::kHeader) {
      const auto parsed = proxy::parse_target(session.plain, /*mask_atyp=*/false);
      if (parsed.status == proxy::ParseStatus::kInvalid) {
        // Authenticated-but-malformed headers are a client bug; Outline
        // drops the connection quietly.
        drain_session(session);
        return;
      }
      if (parsed.status == proxy::ParseStatus::kNeedMore) continue;
      session.phase = Session::Phase::kProxying;
      start_upstream(session, parsed.spec, session.plain, parsed.consumed);
    } else {
      session.plain.clear();  // follow-on data relayed upstream
    }
  }
}

}  // namespace gfwsim::servers
