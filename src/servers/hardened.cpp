#include "servers/hardened.h"

#include <stdexcept>

#include "proxy/aead_crypto.h"
#include "proxy/target.h"

namespace gfwsim::servers {

namespace {
constexpr std::size_t kTimestampLen = 8;
}

Bytes hardened_timestamp_prefix(net::TimePoint now) {
  Bytes out(kTimestampLen);
  store_be64(out.data(), static_cast<std::uint64_t>(net::to_seconds(now)));
  return out;
}

struct HardenedServer::Session : ProxyServerBase::SessionBase {
  enum class Phase { kHandshake, kProxying };
  Phase phase = Phase::kHandshake;
  std::optional<proxy::AeadChunkReader> reader;
  Bytes plain;
};

HardenedServer::HardenedServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                               net::Duration freshness_window, std::uint64_t rng_seed)
    : ProxyServerBase(loop, std::move(config), upstream, rng_seed),
      replay_filter_(freshness_window) {
  if (config_.cipher->kind != proxy::CipherKind::kAead) {
    throw std::invalid_argument("HardenedServer: stream ciphers are deprecated; AEAD only");
  }
  // Read forever: no reaction-revealing idle close. (A production server
  // would still garbage-collect; what matters is that the close cadence
  // does not depend on the error class.)
  config_.idle_timeout = net::hours(24 * 365);
}

std::unique_ptr<ProxyServerBase::SessionBase> HardenedServer::make_session() {
  auto session = std::make_unique<Session>();
  session->reader.emplace(*config_.cipher, key_);
  return session;
}

void HardenedServer::handle_data(SessionBase& base) {
  auto& session = static_cast<Session&>(base);

  const auto status = session.reader->feed(session.buffer, session.plain);
  session.buffer.clear();
  if (status == proxy::AeadChunkReader::Status::kAuthError) {
    drain_session(session);  // indistinguishable from every other error
    return;
  }
  if (session.phase == Session::Phase::kProxying) {
    session.plain.clear();  // relayed upstream
    return;
  }

  // Handshake: [8-byte timestamp][target spec][initial data].
  if (session.plain.size() < kTimestampLen) return;
  const auto claimed =
      net::from_seconds(static_cast<double>(load_be64(session.plain.data())));

  const auto parsed = proxy::parse_target(
      ByteSpan(session.plain.data() + kTimestampLen, session.plain.size() - kTimestampLen),
      /*mask_atyp=*/false);
  if (parsed.status == proxy::ParseStatus::kNeedMore) return;
  if (parsed.status == proxy::ParseStatus::kInvalid) {
    drain_session(session);
    return;
  }

  // Replay & freshness: checked only once the header authenticated, so the
  // filter is not poisoned by garbage.
  const auto skew = claimed > loop_.now() ? claimed - loop_.now() : loop_.now() - claimed;
  if (skew > replay_filter_.window()) {
    drain_session(session);
    return;
  }
  if (!replay_filter_.accept(session.reader->salt(), claimed, loop_.now())) {
    drain_session(session);
    return;
  }

  session.phase = Session::Phase::kProxying;
  start_upstream(session, parsed.spec, session.plain, kTimestampLen + parsed.consumed);
}

}  // namespace gfwsim::servers
