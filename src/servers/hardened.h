// Defense-grade Shadowsocks server implementing every recommendation from
// the paper's section 7.2:
//   * AEAD only — stream ciphers are rejected at construction;
//   * consistent reactions — every error path (short data, auth failure,
//     replayed salt, stale timestamp) reads forever; the server NEVER
//     sends RST or FIN first on an unauthenticated connection, so there
//     is no fingerprintable reaction matrix row;
//   * nonce + timestamp replay filtering — the client embeds an 8-byte
//     big-endian timestamp (seconds) at the start of the first chunk's
//     payload; the server accepts only fresh, unseen (salt) connections,
//     so it does not need to remember nonces forever (the inverted
//     asymmetry the paper describes).
#pragma once

#include "servers/base.h"
#include "servers/replay_filter.h"

namespace gfwsim::servers {

class HardenedServer : public ProxyServerBase {
 public:
  // `freshness_window`: maximum |client timestamp - server clock|.
  HardenedServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                 net::Duration freshness_window = net::seconds(120),
                 std::uint64_t rng_seed = 0x4a7d);

 protected:
  std::unique_ptr<SessionBase> make_session() override;
  void handle_data(SessionBase& session) override;

 private:
  struct Session;

  NonceTimeReplayFilter replay_filter_;
};

// Serializes the timestamp prefix the hardened protocol expects; used by
// the client when ClientConfig::embed_timestamp is set.
Bytes hardened_timestamp_prefix(net::TimePoint now);

}  // namespace gfwsim::servers
