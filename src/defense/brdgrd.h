// brdgrd (bridge guard) — the paper's section 7.1 traffic-analysis
// mitigation.
//
// The real brdgrd rewrites the TCP window in a server's SYN/ACK so that
// the client's first flight is fragmented into several small segments; the
// GFW's passive classifier inspects only the first data-carrying *packet*
// of a connection, so it then sees a tiny payload that never matches the
// Shadowsocks length/entropy profile. This model wraps a host's listener
// and clamps the advertised receive window before the SYN/ACK goes out,
// restoring it after the handshake window passes.
//
// The paper's noted limitations are reproducible knobs:
//   * random window sizes per connection are themselves fingerprintable
//     (`randomize_window` toggles the mitigation of picking one size and
//     sticking with it for a period);
//   * windows small enough to split the target spec can make old
//     stream-cipher servers RST mid-handshake (see bench_fig11's sweep).
#pragma once

#include <functional>

#include "crypto/rng.h"
#include "net/network.h"

namespace gfwsim::defense {

struct BrdgrdConfig {
  std::uint32_t min_window = 20;
  std::uint32_t max_window = 40;
  bool randomize_window = true;  // per-connection random vs sticky
  // How long a "sticky" window choice persists before re-rolling.
  net::Duration sticky_period = net::hours(1);
  // When to restore the normal window after accepting (lets follow-up
  // traffic flow at full size once the first flight was fragmented).
  net::Duration restore_after = net::milliseconds(600);
};

class Brdgrd {
 public:
  Brdgrd(net::EventLoop& loop, BrdgrdConfig config, std::uint64_t seed = 0xb4d6);

  // Wraps `inner` so accepted connections are window-clamped while the
  // guard is enabled.
  net::Host::Acceptor wrap(net::Host::Acceptor inner);

  // Convenience: installs a wrapped listener on host:port.
  void install(net::Host& host, std::uint16_t port, net::Host::Acceptor inner) {
    host.listen(port, wrap(std::move(inner)));
  }

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  std::size_t connections_clamped() const { return clamped_; }

 private:
  std::uint32_t pick_window();

  net::EventLoop& loop_;
  BrdgrdConfig config_;
  crypto::Rng rng_;
  bool enabled_ = true;
  std::uint32_t sticky_window_ = 0;
  net::TimePoint sticky_until_{};
  std::size_t clamped_ = 0;
};

}  // namespace gfwsim::defense
