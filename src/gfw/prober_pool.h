// The GFW's prober infrastructure: thousands of IP addresses, centrally
// controlled (paper sections 3.3-3.4).
//
// What the pool reproduces:
//   * AS distribution of prober addresses (Table 3): AS4837 and AS4134
//     dominate, with a long tail of smaller Chinese ASes;
//   * per-IP reuse (Figure 3): >75% of the 12,300 addresses sent more
//     than one probe, the busiest ~44;
//   * TCP source ports (Figure 5): ~90% in the Linux default ephemeral
//     range 32768-60999, none below 1024 (observed minimum 1212);
//   * IP TTL within 46-50;
//   * TCP timestamps (Figure 6): despite the many source IPs, TSvals fall
//     on a handful of shared counter sequences — at least seven
//     processes, six at 250 Hz and one at 1000 Hz, one of them sending
//     the great majority of probes. This is the network-level side
//     channel showing the probers are centrally controlled.
#pragma once

#include <unordered_map>
#include <vector>

#include "crypto/rng.h"
#include "net/network.h"

namespace gfwsim::gfw {

struct TsvalProcess {
  double rate_hz;           // counter frequency (250 or 1000)
  std::uint32_t offset;     // counter value at simulation time zero
  double weight;            // share of probes stamped by this process
};

class ProberPool {
 public:
  ProberPool(net::Network& net, std::uint64_t seed);

  struct Identity {
    net::Ipv4 ip;
    int asn = 0;
    int tsval_process = -1;
  };

  // Picks the source identity for the next probe (reusing hot addresses,
  // creating new ones as budgets exhaust) and registers its host with the
  // network if needed.
  Identity acquire();

  // Host + per-connection options implementing the fingerprint.
  net::Host& host_for(const Identity& identity);
  net::ConnectOptions connect_options(const Identity& identity, crypto::Rng& rng);

  bool is_prober_address(net::Ipv4 ip) const { return asn_by_ip_.count(ip) > 0; }
  int asn_of(net::Ipv4 ip) const;

  // Total acquire() calls — with one shared pool per GFW this counts
  // probes across ALL servers of a fleet, making pool contention (hot
  // addresses and budgets spent on one server starving another)
  // observable to tests and benches.
  std::size_t acquisitions() const { return acquisitions_; }
  const std::unordered_map<net::Ipv4, int>& probes_per_address() const {
    return probes_per_ip_;
  }
  const std::vector<TsvalProcess>& tsval_processes() const { return tsval_processes_; }

  std::uint32_t tsval_at(int process, net::TimePoint t) const;

 private:
  struct ActiveEntry {
    Identity identity;
    int remaining_budget;
  };

  Identity create_identity();

  net::Network& net_;
  crypto::Rng rng_;
  std::vector<double> as_weights_;
  std::vector<TsvalProcess> tsval_processes_;
  std::vector<double> tsval_weights_;
  std::vector<ActiveEntry> active_;
  std::unordered_map<net::Ipv4, int> asn_by_ip_;
  std::unordered_map<net::Ipv4, int> probes_per_ip_;
  std::size_t acquisitions_ = 0;
};

}  // namespace gfwsim::gfw
