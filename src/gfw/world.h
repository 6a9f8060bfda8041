// World: the owned simulation state for ONE campaign shard — event loop,
// network, hosts, the server fleet under test (each server optionally
// behind its own brdgrd, with its own client driver), GFW middlebox —
// built from a Scenario by the constructor and driven by run()/run_for().
//
// A Scenario with an empty fleet is the historical single-server case
// and is built as a fleet of one with bit-identical seeds, host order,
// and RNG draws (golden-transcript tested). With a non-empty fleet, N
// server rigs share ONE event loop, ONE Network, and ONE Gfw — shared
// prober pool, per-endpoint block table, per-region policy — which is
// what the paper's cross-implementation/cross-region results need.
//
// A World is fully self-contained: it shares no mutable state with other
// Worlds, so independently-seeded Worlds can run on different threads
// with no synchronization (the basis of gfw::ShardedRunner).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "client/ss_client.h"
#include "client/traffic.h"
#include "defense/brdgrd.h"
#include "gfw/gfw.h"
#include "gfw/scenario.h"
#include "net/slot_table.h"
#include "probesim/probesim.h"

namespace gfwsim::gfw {

// One row of World::server_stats (gfw/runner.h).
struct ServerStats;

class World {
 public:
  // Builds the shard's simulation from the scenario; traffic comes from
  // scenario.traffic.build(shard_index) (or each fleet entry's override).
  World(const Scenario& scenario, std::uint64_t seed, std::uint32_t shard_index = 0);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Runs until scenario.duration, then drains outstanding probes.
  void run();
  // Incremental variant for experiments that reconfigure mid-flight
  // (brdgrd toggling, sensitive periods).
  void run_for(net::Duration span);
  // The post-campaign drain window run() applies (heavy-tailed replay
  // delays need it for complete reaction stats).
  void drain(net::Duration grace = net::hours(2));

  Gfw& gfw() { return *gfw_; }
  const ProbeLog& log() const { return gfw_->log(); }
  net::EventLoop& loop() { return loop_; }
  net::Network& network() { return net_; }
  const Scenario& scenario() const { return scenario_; }
  std::uint32_t shard_index() const { return shard_index_; }
  std::uint64_t seed() const { return seed_; }

  // Fleet accessors (single-server scenarios are a fleet of one, so the
  // default server_id 0 is "the" server).
  std::size_t fleet_size() const { return rigs_.size(); }
  servers::ProxyServerBase& server(std::size_t server_id = 0) {
    return *rigs_[server_id]->server;
  }
  defense::Brdgrd* brdgrd(std::size_t server_id = 0) {
    return rigs_[server_id]->brdgrd.get();
  }
  client::TrafficModel& traffic(std::size_t server_id = 0) {
    return *rigs_[server_id]->traffic;
  }
  net::Endpoint server_endpoint(std::size_t server_id = 0) const {
    return rigs_[server_id]->endpoint;
  }
  std::size_t connections_launched(std::size_t server_id) const {
    return rigs_[server_id]->connections_launched;
  }
  // Per-server rows for the runner's merge: empty unless the scenario
  // declared an explicit fleet (the benchmark suite's campaign digest
  // hashes these rows, so a legacy scenario keeps reporting none).
  std::vector<ServerStats> server_stats();

  // Across the whole fleet.
  std::size_t connections_launched() const;
  // Segments that arrived at the control host (expected: zero probes —
  // the GFW does not proactively scan, section 4).
  std::size_t control_host_contacts() const { return control_contacts_; }

  // End-of-campaign invariant scan (see net::TeardownReport); integration
  // tests assert `.clean()` after run(). Scans without running the loop.
  net::TeardownReport teardown_report() { return net_.teardown_report(); }

  // The shard's resource governor (inert unless scenario.resources arms
  // it); peaks/breaches are harvested into ShardSummary::resources.
  const net::ResourceGovernor& governor() const { return governor_; }

  // Which retry attempt this World is (0 = first). Consulted by the
  // scenario's debug_fail_shard injection so tests can model transient
  // failures that a retry clears; set by ShardedRunner before run().
  void set_debug_attempt(int attempt) { debug_attempt_ = attempt; }

 private:
  // A launched fetch and how many of its two holders, the rig's window
  // and its 20 s close timer, still hold it. The unique_ptr keeps the
  // Fetch* its connection's callbacks capture stable as the table grows.
  struct FetchSlot {
    std::unique_ptr<client::Fetch> fetch;
    int holders = 2;
  };

  // One server of the fleet with its own driver-side state. rigs_[0] of
  // a legacy scenario reproduces the historical single-server World
  // exactly: same seeds, same host-creation order, same RNG stream.
  struct ServerRig {
    ServerRig(ServerSpec spec_, std::uint64_t driver_seed)
        : spec(std::move(spec_)), rng(driver_seed) {}

    ServerSpec spec;
    net::Endpoint endpoint;
    net::Host* client_host = nullptr;
    std::unique_ptr<servers::ProxyServerBase> server;
    std::unique_ptr<defense::Brdgrd> brdgrd;
    std::unique_ptr<client::SsClient> client;
    std::unique_ptr<client::TrafficModel> traffic;
    crypto::Rng rng;  // drives pacing jitter + traffic draws
    net::Duration connection_interval{};
    bool raw_traffic = false;
    std::size_t connections_launched = 0;
    // Ids of the rig's 256 most recent fetches.
    std::deque<net::SlotTable<FetchSlot>::Id> fetch_window;
  };

  void build();
  // Per-rig component seed: rig 0 keeps the historical seed_ ^ salt (the
  // bit-identity contract); later rigs branch via shard_seed so streams
  // never collide.
  std::uint64_t rig_seed(std::uint64_t salt, std::size_t index) const;
  void launch_connection(ServerRig& rig);
  // One holder lets go of the fetch; the last one frees its slot.
  void release_fetch(net::SlotTable<FetchSlot>::Id id);
  void pump_traffic(std::size_t rig_index);
  void maybe_inject_failure();

  Scenario scenario_;
  std::uint64_t seed_;
  std::uint32_t shard_index_ = 0;

  // Declared before the loop/network/GFW so it outlives them: teardown
  // paths (timer frees, connection deregistration) release metered units
  // through this governor while those members destruct.
  net::ResourceGovernor governor_;

  net::EventLoop loop_;
  net::Network net_{loop_};
  servers::SimulatedInternet internet_;
  std::unique_ptr<Gfw> gfw_;
  std::vector<std::unique_ptr<ServerRig>> rigs_;
  // Every fetch the rigs launched that is still held; declared after
  // rigs_ so its connections go before the SsClients they call into.
  net::SlotTable<FetchSlot> fetches_;

  net::TimePoint traffic_until_{};

  std::size_t control_contacts_ = 0;
  int debug_attempt_ = 0;
};

}  // namespace gfwsim::gfw
