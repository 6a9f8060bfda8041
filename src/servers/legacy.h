// Legacy stream-cipher server models: Shadowsocks-python and
// ShadowsocksR.
//
// Paper section 6: "all three servers that got blocked were running
// ShadowsocksR or Shadowsocks-python", while the intensively probed
// ss-libev and OutlineVPN servers mostly stayed up. The mechanism this
// model captures: neither implementation had an IV replay filter, so an
// identical replay (probe type R1) is served — the decrypted connection
// goes to the original target and returns DATA, the strongest
// confirmation signal the prober can get (same hole OutlineVPN <= 1.0.8
// had on the AEAD side).
//
// Their error reactions also differ from ss-libev, which is how an
// attacker tells the implementations apart (section 5.2.2):
//   * Shadowsocks-python closes the socket cleanly on a bad address type
//     (FIN/ACK, not RST — its buffers are drained when close() runs);
//   * ShadowsocksR (with the default "origin" protocol) silently drops
//     the session state and lets the connection idle out.
#pragma once

#include "servers/base.h"

namespace gfwsim::servers {

enum class LegacyFlavor {
  kSsPython,  // shadowsocks/shadowsocks (Python)
  kSsr,       // shadowsocksr-csharp / ShadowsocksR, "origin" protocol
};

class LegacyStreamServer : public ProxyServerBase {
 public:
  // `config.cipher` must be a stream method (these implementations
  // predate the AEAD revision or default to stream ciphers).
  LegacyStreamServer(net::EventLoop& loop, ServerConfig config, Upstream* upstream,
                     LegacyFlavor flavor, std::uint64_t rng_seed = 0x1e6a);

  LegacyFlavor flavor() const { return flavor_; }

 protected:
  std::unique_ptr<SessionBase> make_session() override;
  void handle_data(SessionBase& session) override;

 private:
  struct Session;
  LegacyFlavor flavor_;
};

}  // namespace gfwsim::servers
