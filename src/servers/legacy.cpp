#include "servers/legacy.h"

#include <stdexcept>

#include "proxy/stream_crypto.h"
#include "proxy/target.h"

namespace gfwsim::servers {

struct LegacyStreamServer::Session : ProxyServerBase::SessionBase {
  enum class Phase { kHeader, kProxying };
  Phase phase = Phase::kHeader;
  std::optional<proxy::StreamSession> ingress;
  Bytes plain;
};

LegacyStreamServer::LegacyStreamServer(net::EventLoop& loop, ServerConfig config,
                                       Upstream* upstream, LegacyFlavor flavor,
                                       std::uint64_t rng_seed)
    : ProxyServerBase(loop, std::move(config), upstream, rng_seed), flavor_(flavor) {
  if (config_.cipher->kind != proxy::CipherKind::kStream) {
    throw std::invalid_argument("LegacyStreamServer: stream ciphers only");
  }
}

std::unique_ptr<ProxyServerBase::SessionBase> LegacyStreamServer::make_session() {
  return std::make_unique<Session>();
}

void LegacyStreamServer::handle_data(SessionBase& base) {
  auto& session = static_cast<Session&>(base);
  const auto& spec = *config_.cipher;

  if (!session.ingress) {
    if (session.buffer.size() < spec.iv_len) return;
    const Bytes iv(session.buffer.begin(),
                   session.buffer.begin() + static_cast<std::ptrdiff_t>(spec.iv_len));
    session.buffer.erase(session.buffer.begin(),
                         session.buffer.begin() + static_cast<std::ptrdiff_t>(spec.iv_len));
    // No replay filter of any kind: this is the vulnerability that made
    // these implementations confirmable (and, per section 6, blockable).
    session.ingress.emplace(spec, key_, iv, proxy::StreamSession::Direction::kDecrypt);
  }

  if (!session.buffer.empty()) {
    append(session.plain, session.ingress->process(session.buffer));
    session.buffer.clear();
  }

  if (session.phase == Session::Phase::kProxying) {
    session.plain.clear();  // relayed upstream
    return;
  }

  // Both implementations parse the address type strictly (no 0x0F mask:
  // the one-time-auth flag trick was ss-libev's), so random probes are
  // valid with probability 3/256 rather than 3/16 — another reaction an
  // attacker can measure (section 5.2.2).
  const auto parsed = proxy::parse_target(session.plain, /*mask_atyp=*/false);
  switch (parsed.status) {
    case proxy::ParseStatus::kInvalid:
      if (flavor_ == LegacyFlavor::kSsPython) {
        close_session(session);  // Python: clean close -> FIN/ACK
      } else {
        drain_session(session);  // SSR: drops state, idles out
      }
      return;
    case proxy::ParseStatus::kNeedMore:
      return;
    case proxy::ParseStatus::kOk: {
      session.phase = Session::Phase::kProxying;
      start_upstream(session, parsed.spec, session.plain, parsed.consumed);
      return;
    }
  }
}

}  // namespace gfwsim::servers
