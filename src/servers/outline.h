// Behaviour-accurate model of the OutlineVPN (outline-ss-server) server.
//
// Outline only supports "chacha20-ietf-poly1305" (32-byte salt). Version
// differences reproduced (paper Figure 10b, Table 5, section 11):
//   * v1.0.6: waits for [salt][len][tag] = 50 bytes; on authentication
//     failure it closes the socket — which the kernel turns into FIN/ACK
//     when the probe was exactly 50 bytes (all data read) and into RST
//     when longer (unread bytes remain). The distinctive 50-byte FIN/ACK
//     cell in Figure 10b falls out of that rule.
//   * v1.0.7 - v1.0.8: "probing resistance via timeout" — all error paths
//     read forever, so probers only see TIMEOUT. Still no replay defense:
//     identical replays are served (reaction D), which is what stage-2
//     probing keys on (section 4.2).
//   * v1.1.0 (Feb 2020, post-disclosure): salt-based replay defense; we
//     also model the July 2020 client-side change (merged header+data)
//     elsewhere, in the client options.
#pragma once

#include <optional>

#include "servers/base.h"
#include "servers/replay_filter.h"

namespace gfwsim::servers {

enum class OutlineVersion {
  kV1_0_6,
  kV1_0_7,
  kV1_0_8,
  kV1_1_0,  // replay defense enabled
};

class OutlineServer : public ProxyServerBase {
 public:
  // `config.cipher` must be chacha20-ietf-poly1305.
  OutlineServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                OutlineVersion version, std::uint64_t rng_seed = 0x0071);

  OutlineVersion version() const { return version_; }

 protected:
  std::unique_ptr<SessionBase> make_session() override;
  void handle_data(SessionBase& session) override;

 private:
  struct Session;

  void auth_failure(Session& session);

  OutlineVersion version_;
  // Only v1.1.0 reads a salt filter, so only v1.1.0 keeps one.
  std::optional<BloomReplayFilter> replay_filter_;
};

}  // namespace gfwsim::servers
