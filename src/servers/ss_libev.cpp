#include "servers/ss_libev.h"

#include "proxy/aead_crypto.h"
#include "proxy/stream_crypto.h"
#include "proxy/target.h"

namespace gfwsim::servers {

namespace {
// AEAD: length field + its tag + one more tag must be buffered (beyond the
// salt) before libev attempts the first decryption (paper section 5.2.1:
// 50 bytes timeout / 51 bytes RST with a 16-byte salt => salt + 35).
constexpr std::size_t kAeadFirstDecryptThreshold =
    proxy::kAeadLenFieldLen + proxy::kAeadTagLen + proxy::kAeadTagLen + 1;
}  // namespace

struct SsLibevServer::Session : ProxyServerBase::SessionBase {
  enum class Phase { kHeader, kProxying };
  Phase phase = Phase::kHeader;

  // Stream construction state.
  std::optional<proxy::StreamSession> stream_ingress;

  // AEAD construction state.
  std::optional<proxy::AeadSession> aead_ingress;
  Bytes salt;
  bool salt_in_filter = false;
  std::optional<std::size_t> pending_payload_len;

  // Decrypted-but-not-yet-consumed plaintext.
  Bytes plain;

  // strict-first-read bookkeeping (brdgrd failure mode, section 7.1).
  bool in_first_read = false;
  bool saw_data = false;
};

SsLibevServer::SsLibevServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                             LibevVersion version, std::uint64_t rng_seed)
    : ProxyServerBase(loop, std::move(config), upstream, rng_seed), version_(version) {}

std::unique_ptr<ProxyServerBase::SessionBase> SsLibevServer::make_session() {
  return std::make_unique<Session>();
}

void SsLibevServer::error_out(Session& session) {
  if (libev_is_old(version_)) {
    abort_session(session);  // immediate RST
  } else {
    drain_session(session);  // v3.3.1+: stop reacting, peer times out
  }
}

void SsLibevServer::handle_data(SessionBase& base) {
  auto& session = static_cast<Session&>(base);
  session.in_first_read = !session.saw_data;
  session.saw_data = true;
  if (config_.cipher->kind == proxy::CipherKind::kStream) {
    handle_stream(session);
  } else {
    handle_aead(session);
  }
}

void SsLibevServer::handle_stream(Session& session) {
  const auto& spec = *config_.cipher;

  if (!session.stream_ingress) {
    if (session.buffer.size() < spec.iv_len) return;  // awaiting full IV
    const Bytes iv(session.buffer.begin(),
                   session.buffer.begin() + static_cast<std::ptrdiff_t>(spec.iv_len));
    session.buffer.erase(session.buffer.begin(),
                         session.buffer.begin() + static_cast<std::ptrdiff_t>(spec.iv_len));
    // ppbloom: the IV of every connection is remembered immediately, so
    // even a garbage probe sent twice trips the filter (section 5.3).
    if (replay_filter_.check_and_insert(iv)) {
      error_out(session);
      return;
    }
    session.stream_ingress.emplace(spec, key_, iv, proxy::StreamSession::Direction::kDecrypt);
  }

  if (!session.buffer.empty()) {
    append(session.plain, session.stream_ingress->process(session.buffer));
    session.buffer.clear();
  }
  handle_plaintext(session);
}

void SsLibevServer::handle_aead(Session& session) {
  const auto& spec = *config_.cipher;

  if (!session.aead_ingress) {
    if (session.buffer.size() < spec.iv_len) return;  // awaiting full salt
    session.salt.assign(session.buffer.begin(),
                        session.buffer.begin() + static_cast<std::ptrdiff_t>(spec.iv_len));
    session.buffer.erase(session.buffer.begin(),
                         session.buffer.begin() + static_cast<std::ptrdiff_t>(spec.iv_len));
    if (replay_filter_.contains(session.salt)) {
      error_out(session);
      return;
    }
    session.aead_ingress.emplace(spec, key_, session.salt);
  }

  for (;;) {
    if (!session.pending_payload_len) {
      if (session.phase == Session::Phase::kHeader &&
          session.buffer.size() < kAeadFirstDecryptThreshold) {
        return;  // not enough for [len][tag][tag+1 byte]: keep waiting
      }
      const std::size_t need = proxy::kAeadLenFieldLen + proxy::kAeadTagLen;
      if (session.buffer.size() < need) return;
      const auto opened =
          session.aead_ingress->open(ByteSpan(session.buffer.data(), need));
      if (!opened) {
        error_out(session);  // authentication failure
        return;
      }
      // First successful authentication: remember the salt (AEAD salts of
      // *valid* connections populate ppbloom).
      if (!session.salt_in_filter) {
        replay_filter_.insert(session.salt);
        session.salt_in_filter = true;
      }
      session.pending_payload_len = load_be16(opened->data()) & proxy::kAeadMaxChunkPayload;
      session.buffer.erase(session.buffer.begin(),
                           session.buffer.begin() + static_cast<std::ptrdiff_t>(need));
    }

    const std::size_t need = *session.pending_payload_len + proxy::kAeadTagLen;
    if (session.buffer.size() < need) return;
    const auto opened = session.aead_ingress->open(ByteSpan(session.buffer.data(), need));
    if (!opened) {
      error_out(session);
      return;
    }
    append(session.plain, *opened);
    session.pending_payload_len.reset();
    session.buffer.erase(session.buffer.begin(),
                         session.buffer.begin() + static_cast<std::ptrdiff_t>(need));

    const SessionId id = session.id;
    handle_plaintext(session);
    // handle_plaintext may have performed a terminal action (old versions
    // RST on a bad address type), destroying the session.
    if (find(id) == nullptr || session.drained) return;
  }
}

void SsLibevServer::handle_plaintext(Session& session) {
  if (session.phase == Session::Phase::kProxying) {
    if (!session.plain.empty()) {
      // Follow-on client data is relayed upstream; the simulation answers
      // through the same outcome machinery.
      session.plain.clear();
    }
    return;
  }

  // ss-libev masks the address type with 0x0F (one-time-auth artifact).
  const auto parsed = proxy::parse_target(session.plain, /*mask_atyp=*/true);
  switch (parsed.status) {
    case proxy::ParseStatus::kInvalid:
      error_out(session);
      return;
    case proxy::ParseStatus::kNeedMore:
      // Strict implementations demand the whole spec in the first read
      // (what aggressive brdgrd clamping trips over); only once the IV is
      // complete, since a partial IV never reaches this point.
      if (strict_first_read_ && session.in_first_read) {
        abort_session(session);
        return;
      }
      return;  // wait (TIMEOUT if the probe never completes a spec)
    case proxy::ParseStatus::kOk: {
      session.phase = Session::Phase::kProxying;
      start_upstream(session, parsed.spec, session.plain, parsed.consumed);
      return;
    }
  }
}

}  // namespace gfwsim::servers
