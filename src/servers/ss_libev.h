// Behaviour-accurate model of the shadowsocks-libev server.
//
// Two behaviour groups (paper Figure 10, Table 5):
//   * kOld (v3.0.8 - v3.2.5): errors are answered with an immediate RST —
//     invalid address type (after the 0x0F mask), AEAD authentication
//     failure, and detected replays all reset the connection.
//   * kNew (v3.3.1 - v3.3.3): the same error paths silently stop reading
//     instead (commit a99c39c "Simplify the server auto blocking
//     mechanism"), so probers only ever observe a timeout.
//
// Behaviours reproduced mechanically rather than as lookup tables:
//   * stream: IV-length wait, ppbloom replay check on the IV, 0x0F mask on
//     the address type (valid with probability 3/16 for random bytes),
//     upstream connect on a complete spec (FIN/ACK on failure, hang on
//     unresponsive targets);
//   * AEAD: waits for salt + 35 bytes (length chunk + one more tag) before
//     the first decryption attempt — the 50/51-byte reaction boundary for
//     16-byte salts — then authenticates, with ppbloom on the salt.
#pragma once

#include "servers/base.h"
#include "servers/replay_filter.h"

namespace gfwsim::servers {

enum class LibevVersion {
  kV3_0_8,  // old group
  kV3_1_3,  // old group (used in the paper's experiments)
  kV3_2_5,  // old group
  kV3_3_1,  // new group (used in the paper's experiments)
  kV3_3_3,  // new group
};

constexpr bool libev_is_old(LibevVersion v) {
  return v == LibevVersion::kV3_0_8 || v == LibevVersion::kV3_1_3 ||
         v == LibevVersion::kV3_2_5;
}

class SsLibevServer : public ProxyServerBase {
 public:
  SsLibevServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                LibevVersion version, std::uint64_t rng_seed = 0x55EB);

  LibevVersion version() const { return version_; }

  // Section 7.1, limitation 3: some implementations demand the complete
  // target specification in the FIRST read and reset otherwise — which is
  // what makes aggressive brdgrd window clamping break real clients. Off
  // by default; the brdgrd bench turns it on for the failure-mode arm.
  void set_strict_first_read(bool strict) { strict_first_read_ = strict; }

 protected:
  std::unique_ptr<SessionBase> make_session() override;
  void handle_data(SessionBase& session) override;

 private:
  struct Session;

  void handle_stream(Session& session);
  void handle_aead(Session& session);
  void handle_plaintext(Session& session);
  // The version-dependent error reaction: RST (old) or read-forever (new).
  void error_out(Session& session);

  LibevVersion version_;
  BloomReplayFilter replay_filter_;
  bool strict_first_read_ = false;
};

}  // namespace gfwsim::servers
