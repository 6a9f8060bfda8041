// The GFW's blocking module (paper section 6).
//
// Once the active-probing system is confident a server runs Shadowsocks,
// blocking MAY follow — but in the paper's measurements it rarely did:
// only 3 of 63 vantage points were ever blocked, despite intensive
// probing. We model that with a "human factor" gate (hypothesis 1 in
// section 6) whose probability rises during politically sensitive
// periods. What blocking looks like when it happens:
//   * by port (drop server:port -> client) or by whole IP;
//   * unidirectional: only the server-to-client direction is dropped
//     (null routing), like the GFW's Tor blocking;
//   * no periodic recheck probes; unblocking can happen after a week or
//     more without any preceding probe.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rng.h"
#include "net/network.h"

namespace gfwsim::gfw {

// Region-specific human-factor gate. Ensafi et al. documented large
// spatial inconsistencies in GFW enforcement; fleet campaigns express
// them by tagging servers with a region whose policy overrides the
// global gate probabilities.
struct RegionPolicy {
  double block_probability = 0.05;
  double sensitive_block_probability = 0.60;
};

struct BlockingConfig {
  // Evidence score needed before the module even considers blocking.
  double confirmation_threshold = 3.0;
  // Human-factor gate: probability that a confirmed server actually gets
  // blocked, normally and during sensitive periods (paper: 3 of 63
  // intensively probed vantage points were ever blocked).
  double block_probability = 0.05;
  double sensitive_block_probability = 0.60;
  // Share of blocks that null-route the whole address rather than a port.
  double block_by_ip_fraction = 0.4;
  // Unblock delay (no recheck); roughly "more than a week".
  net::Duration min_block_duration = net::hours(24 * 7);
  net::Duration max_block_duration = net::hours(24 * 21);
  // Per-region overrides of the gate probabilities; a server whose
  // registered region (set_region) has an entry here uses that policy.
  // Empty (the default) keeps the global gate for everyone — and costs
  // no extra RNG draws, so single-server transcripts are unchanged.
  std::map<std::string, RegionPolicy> region_policies;
};

class BlockingModule {
 public:
  BlockingModule(net::EventLoop& loop, BlockingConfig config, std::uint64_t seed);

  // Active-probing evidence about a server. `weight` reflects how
  // diagnostic the observation was (a DATA reply to a replay is worth
  // more than one RST at a threshold length).
  void add_evidence(net::Endpoint server, double weight);

  // Politically sensitive period toggle (section 2.2's blocking waves).
  void set_sensitive_period(bool sensitive) { sensitive_ = sensitive; }

  // Tags a server endpoint with a region for policy lookup and block
  // attribution (fleet campaigns; see Gfw::register_server).
  void set_region(net::Endpoint server, std::string region);
  // "" for untagged servers.
  const std::string& region_of(net::Endpoint server) const;

  // Called by the GFW middlebox for every segment: true = drop.
  bool should_drop(const net::Segment& segment) const;

  struct BlockEntry {
    net::Ipv4 server_ip;
    std::optional<std::uint16_t> port;  // nullopt = whole IP
    net::TimePoint blocked_at{};
    net::TimePoint unblock_at{};
    // Region of the server that triggered this block ("" outside fleet
    // campaigns); every shard checkpoint frame journals it.
    std::string region;
  };

  bool is_blocked(net::Endpoint server) const;
  const std::vector<BlockEntry>& history() const { return history_; }
  std::size_t active_blocks() const { return active_.size(); }
  double evidence(net::Endpoint server) const;

 private:
  void install_block(net::Endpoint server);

  net::EventLoop& loop_;
  BlockingConfig config_;
  crypto::Rng rng_;
  bool sensitive_ = false;
  std::map<net::Endpoint, std::string> regions_;
  std::map<net::Endpoint, double> evidence_;
  std::map<net::Endpoint, bool> decided_;  // gate rolled already
  // Active rules: key is (ip, port) with port 0 meaning the whole IP.
  std::map<std::pair<net::Ipv4, std::uint16_t>, net::TimePoint> active_;
  std::vector<BlockEntry> history_;
};

}  // namespace gfwsim::gfw
