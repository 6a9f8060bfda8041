#include "servers/vmess.h"

#include "crypto/hmac.h"
#include "crypto/md5.h"
#include "proxy/stream_crypto.h"
#include "proxy/target.h"

namespace gfwsim::servers {

namespace {

const proxy::CipherSpec& command_cipher() {
  return *proxy::find_cipher("aes-128-cfb");
}

std::int64_t seconds_of(net::TimePoint at) {
  return static_cast<std::int64_t>(net::to_seconds(at));
}

Bytes auth_for_seconds(const VmessUserId& user, std::int64_t seconds) {
  std::uint8_t ts[8];
  store_be64(ts, static_cast<std::uint64_t>(seconds));
  const auto tag =
      crypto::Hmac<crypto::Md5>::mac(ByteSpan(user.data(), user.size()), ByteSpan(ts, 8));
  return Bytes(tag.begin(), tag.end());
}

Bytes command_key(const VmessUserId& user) {
  Bytes seed(user.begin(), user.end());
  append(seed, to_bytes("vmess-lite-key"));
  return crypto::md5(seed);
}

Bytes command_iv(const VmessUserId& user, std::int64_t seconds) {
  std::uint8_t ts[8];
  store_be64(ts, static_cast<std::uint64_t>(seconds));
  Bytes seed(ts, ts + 8);
  seed.insert(seed.end(), user.begin(), user.begin() + 8);
  return crypto::md5(seed);
}

}  // namespace

Bytes vmess_auth(const VmessUserId& user, net::TimePoint at) {
  return auth_for_seconds(user, seconds_of(at));
}

Bytes vmess_first_packet(const VmessUserId& user, net::TimePoint at,
                         const proxy::TargetSpec& target, ByteSpan initial_data) {
  const std::int64_t seconds = seconds_of(at);
  Bytes out = auth_for_seconds(user, seconds);

  proxy::StreamSession enc(command_cipher(), command_key(user), command_iv(user, seconds),
                           proxy::StreamSession::Direction::kEncrypt);
  Bytes command = proxy::encode_target(target);
  append(command, initial_data);
  append(out, enc.process(command));
  return out;
}

struct VmessServer::Session : ProxyServerBase::SessionBase {
  enum class Phase { kAuth, kCommand, kProxying };
  Phase phase = Phase::kAuth;
  std::optional<proxy::StreamSession> command_decryptor;
  Bytes plain;
};

VmessServer::VmessServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                         VmessUserId user, VmessVariant variant, std::uint64_t rng_seed)
    : ProxyServerBase(loop, std::move(config), upstream, rng_seed),
      user_(user),
      variant_(variant) {}

std::unique_ptr<ProxyServerBase::SessionBase> VmessServer::make_session() {
  return std::make_unique<Session>();
}

bool VmessServer::auth_valid(ByteSpan auth, net::TimePoint* matched_at) const {
  const std::int64_t now = seconds_of(loop_.now());
  const auto window = static_cast<std::int64_t>(net::to_seconds(kVmessTimeWindow));
  for (std::int64_t t = now - window; t <= now + window; ++t) {
    if (ct_equal(auth_for_seconds(user_, t), auth)) {
      if (matched_at != nullptr) *matched_at = net::from_seconds(static_cast<double>(t));
      return true;
    }
  }
  return false;
}

void VmessServer::handle_data(SessionBase& base) {
  auto& session = static_cast<Session&>(base);

  if (session.phase == Session::Phase::kAuth) {
    if (session.buffer.size() < kVmessAuthLen) return;
    const ByteSpan auth(session.buffer.data(), kVmessAuthLen);

    net::TimePoint matched_at{};
    if (!auth_valid(auth, &matched_at)) {
      if (variant_ == VmessVariant::kVulnerable) {
        // The disclosed oracle: reject as soon as the 16 auth bytes are
        // in — an attacker drip-feeding bytes sees the close land at
        // exactly 16, which screams "VMess".
        close_session(session);
      } else {
        drain_session(session);  // patched: read forever
      }
      return;
    }

    if (variant_ == VmessVariant::kPatched &&
        !replay_filter_.accept(auth, matched_at, loop_.now())) {
      drain_session(session);  // in-window replay rejected silently
      return;
    }

    session.command_decryptor.emplace(
        command_cipher(), command_key(user_),
        command_iv(user_, seconds_of(matched_at)),
        proxy::StreamSession::Direction::kDecrypt);
    session.buffer.erase(session.buffer.begin(),
                         session.buffer.begin() + kVmessAuthLen);
    session.phase = Session::Phase::kCommand;
  }

  if (!session.buffer.empty()) {
    append(session.plain, session.command_decryptor->process(session.buffer));
    session.buffer.clear();
  }

  if (session.phase == Session::Phase::kProxying) {
    session.plain.clear();
    return;
  }

  const auto parsed = proxy::parse_target(session.plain, /*mask_atyp=*/false);
  if (parsed.status == proxy::ParseStatus::kNeedMore) return;
  if (parsed.status == proxy::ParseStatus::kInvalid) {
    drain_session(session);  // authenticated garbage: client bug
    return;
  }
  session.phase = Session::Phase::kProxying;
  start_upstream(session, parsed.spec, session.plain, parsed.consumed);
}

}  // namespace gfwsim::servers
