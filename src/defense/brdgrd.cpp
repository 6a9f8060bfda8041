#include "defense/brdgrd.h"

namespace gfwsim::defense {

namespace {
// The normal window restored after the first flight: 65535, the largest
// unscaled TCP window.
constexpr std::uint32_t kRestoredWindow = 65535;
}  // namespace

Brdgrd::Brdgrd(net::EventLoop& loop, BrdgrdConfig config, std::uint64_t seed)
    : loop_(loop), config_(config), rng_(seed) {}

std::uint32_t Brdgrd::pick_window() {
  if (config_.randomize_window) {
    return static_cast<std::uint32_t>(rng_.uniform(config_.min_window, config_.max_window));
  }
  // Sticky mode: one choice per period, mitigating the "inconsistent
  // window announcements are themselves a fingerprint" problem.
  if (sticky_window_ == 0 || loop_.now() >= sticky_until_) {
    sticky_window_ =
        static_cast<std::uint32_t>(rng_.uniform(config_.min_window, config_.max_window));
    sticky_until_ = loop_.now() + config_.sticky_period;
  }
  return sticky_window_;
}

net::Host::Acceptor Brdgrd::wrap(net::Host::Acceptor inner) {
  return [this, inner = std::move(inner)](net::ConnectionHandle conn) {
    if (enabled_) {
      ++clamped_;
      conn->set_recv_window(pick_window());
      // Restore the window once the fragmented first flight is through.
      // The timer does not own the connection: it resolves the id, and
      // finds nothing once the server has let go of it.
      loop_.schedule_after(config_.restore_after, [net = &conn->network(), id = conn->id()] {
        net::Connection* alive = net->connection(id);
        if (alive != nullptr && alive->established()) alive->set_recv_window(kRestoredWindow);
      });
    }
    inner(std::move(conn));
  };
}

}  // namespace gfwsim::defense
