#include "gfw/world.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "gfw/runner.h"  // shard_seed, ServerStats

namespace gfwsim::gfw {

namespace {

// Is an address "inside China" for the purposes of the border middlebox?
// The world places the client (and the prober pool prefixes) in
// Chinese-looking space and the default server/control hosts outside.
bool default_is_domestic(net::Ipv4 ip) {
  switch (ip.value >> 24) {
    case 58: case 112: case 113: case 116: case 117: case 120:
    case 124: case 175: case 202: case 218: case 221: case 223:
      return true;
    default:
      return false;
  }
}

// Deterministic fleet numbering plan. Rig 0 keeps the historical
// addresses; later rigs take consecutive addresses from adjacent blocks
// chosen to stay on the right side of default_is_domestic and clear of
// the control host (203.0.113.77) and the prober-pool /16 prefixes.
net::Ipv4 fleet_server_ip(bool inside_china, std::size_t index) {
  if (index == 0) {
    return inside_china ? net::Ipv4(113, 54, 22, 9) : net::Ipv4(203, 0, 113, 10);
  }
  const auto offset = static_cast<std::uint32_t>(index - 1);
  return inside_china ? net::Ipv4(net::Ipv4(113, 54, 23, 0).value + offset)
                      : net::Ipv4(net::Ipv4(203, 0, 114, 0).value + offset);
}

// The driver sits on the opposite side of the border from its server.
net::Ipv4 fleet_client_ip(bool server_inside_china, std::size_t index) {
  if (index == 0) {
    return server_inside_china ? net::Ipv4(198, 51, 100, 4) : net::Ipv4(116, 28, 5, 7);
  }
  const auto offset = static_cast<std::uint32_t>(index - 1);
  return server_inside_china ? net::Ipv4(net::Ipv4(198, 51, 104, 0).value + offset)
                             : net::Ipv4(net::Ipv4(116, 28, 8, 0).value + offset);
}

}  // namespace

World::World(const Scenario& scenario, std::uint64_t seed, std::uint32_t shard_index)
    : scenario_(scenario),
      seed_(seed),
      shard_index_(shard_index),
      internet_(crypto::Rng(seed ^ 0x1e7)) {
  validate(scenario_);
  build();
}

std::uint64_t World::rig_seed(std::uint64_t salt, std::size_t index) const {
  const std::uint64_t base = seed_ ^ salt;
  return index == 0 ? base : shard_seed(base, static_cast<std::uint32_t>(index));
}

void World::build() {
  // Latency: ~100 ms across the border, like the Beijing<->UK/US paths of
  // the paper's experiments.
  net_.set_default_latency(net::milliseconds(50));

  // Path impairment. The fault seed is derived from the shard seed, so
  // every shard replays its own loss/dup/reorder pattern bit-identically
  // no matter which thread runs it; a disabled profile arms nothing.
  net_.set_fault_seed(seed_ ^ 0xFA17);
  net_.set_default_faults(scenario_.faults);
  net_.set_arq(scenario_.arq);

  // Resource governance. Armed only when the scenario configures it:
  // the default all-zero ResourceConfig attaches nothing, meters
  // nothing, and seeds no stream — the governed build is bit-identical
  // to an ungoverned one (golden-transcript tested). The injection
  // stream derives from the shard seed like the fault streams do.
  if (scenario_.resources.enabled()) {
    governor_.configure(scenario_.resources.limits,
                        seed_ ^ net::ResourceGovernor::kSeedSalt);
    loop_.set_governor(&governor_);
    net_.set_governor(&governor_);
    net_.set_queue_cap(scenario_.resources.path_queue_cap);
  }

  internet_.add_site("www.wikipedia.org", servers::fixed_http_responder(4096));
  internet_.add_site("example.com", servers::fixed_http_responder(1024));
  internet_.add_site("gfw.report", servers::fixed_http_responder(2048));
  internet_.add_site("www.alexa-top-site.net", servers::fixed_http_responder(8192));

  // Fleet plan: an empty fleet is the legacy single-server scenario, run
  // as a fleet of one. Per-endpoint payload accounting is armed only for
  // explicit fleets, so single-server runs pay nothing for it.
  std::vector<ServerSpec> specs = scenario_.fleet;
  const bool explicit_fleet = !specs.empty();
  if (specs.empty()) specs.push_back(scenario_.single_server_spec());
  if (explicit_fleet) net_.enable_endpoint_accounting();

  // Hosts, in rig order: each driver sits on the opposite side of the
  // border from its server. An explicit spec.ip dedups through add_host,
  // so co-located servers (IP shared-fate experiments) share one host.
  rigs_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto rig = std::make_unique<ServerRig>(std::move(specs[i]), rig_seed(0, i));
    const ServerSpec& spec = rig->spec;
    const net::Ipv4 server_ip =
        spec.ip.value != 0 ? spec.ip : fleet_server_ip(spec.inside_china, i);
    rig->endpoint = {server_ip, spec.port};
    rig->client_host = &net_.add_host(fleet_client_ip(spec.inside_china, i));
    net_.add_host(server_ip);
    rig->connection_interval =
        spec.connection_interval.value_or(scenario_.connection_interval);
    rig->raw_traffic = spec.raw_traffic.value_or(scenario_.raw_traffic);
    // Per-endpoint path shaping between this driver/server pair.
    if (spec.latency) {
      net_.set_latency(rig->client_host->addr(), server_ip, *spec.latency);
    }
    if (spec.faults) {
      net_.set_faults(rig->client_host->addr(), server_ip, *spec.faults);
      net_.set_faults(server_ip, rig->client_host->addr(), *spec.faults);
    }
    rigs_.push_back(std::move(rig));
  }

  // Control host: listens but is never contacted by our clients; any
  // arriving segment is counted. The acceptor drops the handle, so the
  // connection is freed right after its SYN/ACK.
  net::Host& control_host = net_.add_host(net::Ipv4(203, 0, 113, 77));
  control_host.listen(8388, [this](net::ConnectionHandle conn) {
    ++control_contacts_;
    conn->set_callbacks({});
  });

  // Servers under test, each optionally behind its own brdgrd.
  for (std::size_t i = 0; i < rigs_.size(); ++i) {
    ServerRig& rig = *rigs_[i];
    net::Host& server_host = net_.add_host(rig.endpoint.addr);
    rig.server =
        probesim::make_server(rig.spec.server, loop_, &internet_, rig_seed(0x5e4, i));
    if (rig.spec.use_brdgrd) {
      rig.brdgrd =
          std::make_unique<defense::Brdgrd>(loop_, rig.spec.brdgrd, rig_seed(0xb6d, i));
      rig.brdgrd->install(server_host, rig.endpoint.port, rig.server->acceptor());
    } else {
      rig.server->install(server_host, rig.endpoint.port);
    }
  }

  // ONE GFW on the path, shared by the whole fleet: one classifier, one
  // prober pool, one block table.
  GfwConfig gfw_config = scenario_.gfw;
  if (!gfw_config.is_domestic) gfw_config.is_domestic = default_is_domestic;
  gfw_config.classifier.base_rate = scenario_.classifier_base_rate;
  gfw_ = std::make_unique<Gfw>(net_, std::move(gfw_config), seed_ ^ 0x6f3);
  if (scenario_.resources.enabled()) {
    gfw_->set_governor(&governor_, scenario_.resources.probe_queue_cap);
  }
  net_.add_middlebox(gfw_.get());
  if (explicit_fleet) {
    for (std::size_t i = 0; i < rigs_.size(); ++i) {
      gfw_->register_server(rigs_[i]->endpoint, static_cast<std::uint16_t>(i),
                            rigs_[i]->spec.region);
    }
  }

  // Clients, one driver per rig.
  for (std::size_t i = 0; i < rigs_.size(); ++i) {
    ServerRig& rig = *rigs_[i];
    client::ClientConfig client_config =
        rig.spec.client ? *rig.spec.client : scenario_.client;
    if (client_config.cipher == nullptr) {
      client_config.cipher = proxy::find_cipher(rig.spec.server.cipher);
    }
    if (client_config.password.empty()) client_config.password = rig.spec.server.password;
    rig.client = std::make_unique<client::SsClient>(*rig.client_host, rig.endpoint,
                                                    client_config, rig_seed(0xc11, i));
    if (rig.spec.traffic) {
      rig.traffic = rig.spec.traffic->build(shard_index_);
    } else {
      rig.traffic = scenario_.traffic.build(shard_index_);
    }
  }

  // Test-only supervision coverage: the targeted shard arms one extra
  // timer that crashes or wedges at a fixed sim-time (see Scenario).
  if (scenario_.debug_fail_shard.enabled &&
      scenario_.debug_fail_shard.shard == shard_index_) {
    loop_.schedule_after(scenario_.debug_fail_shard.after,
                         [this] { maybe_inject_failure(); });
  }
}

void World::maybe_inject_failure() {
  const Scenario::DebugFailShard& dbg = scenario_.debug_fail_shard;
  if (debug_attempt_ >= dbg.fail_attempts) return;  // this retry succeeds
  // Simulated worker death (OOM kill / segfault): no unwinding, no
  // journal flush beyond frames already written — exit code 57 so the
  // coordinator's death attribution is testable against a known status.
  if (dbg.die) std::_Exit(57);
  if (!dbg.stall) {
    throw std::runtime_error("debug_fail_shard: injected crash in shard " +
                             std::to_string(shard_index_));
  }
  // Wedge the loop: no events complete, so the heartbeat freezes and the
  // stall watchdog eventually sets the abort flag we poll here. The
  // safety bound keeps a watchdog-less run from hanging CI forever.
  const auto wedged_at = std::chrono::steady_clock::now();
  while (!loop_.abort_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (std::chrono::steady_clock::now() - wedged_at > std::chrono::seconds(60)) {
      throw std::runtime_error(
          "debug_fail_shard: stall exceeded the 60 s safety bound (no stall "
          "watchdog armed?)");
    }
  }
  // Return and let the event loop's between-events check throw LoopAborted.
}

World::~World() {
  if (gfw_) net_.remove_middlebox(gfw_.get());
}

std::size_t World::connections_launched() const {
  std::size_t n = 0;
  for (const auto& rig : rigs_) n += rig->connections_launched;
  return n;
}

std::vector<ServerStats> World::server_stats() {
  if (scenario_.fleet.empty()) return {};
  std::vector<std::size_t> probes(rigs_.size(), 0);
  for (const ProbeRecord& record : gfw_->log().records()) {
    if (record.server_id < probes.size()) ++probes[record.server_id];
  }
  std::vector<ServerStats> stats;
  stats.reserve(rigs_.size());
  for (std::size_t i = 0; i < rigs_.size(); ++i) {
    const ServerRig& rig = *rigs_[i];
    ServerStats s;
    s.server_id = static_cast<std::uint16_t>(i);
    s.endpoint = rig.endpoint;
    s.region = rig.spec.region;
    s.impl = std::string(probesim::impl_name(rig.spec.server.impl));
    s.cipher = rig.spec.server.cipher;
    s.connections_launched = rig.connections_launched;
    s.payload_bytes = net_.payload_bytes_for(rig.endpoint);
    s.probes = probes[i];
    for (const auto& entry : gfw_->blocking().history()) {
      if (entry.server_ip == rig.endpoint.addr &&
          (!entry.port || *entry.port == rig.endpoint.port)) {
        ++s.blocks;
      }
    }
    stats.push_back(std::move(s));
  }
  return stats;
}

void World::launch_connection(ServerRig& rig) {
  ++rig.connections_launched;
  client::Flow flow = rig.traffic->next(rig.rng);
  const auto id = fetches_.emplace(FetchSlot{
      rig.raw_traffic ? rig.client->send_raw(std::move(flow.first_payload))
                      : rig.client->fetch(flow.target, flow.first_payload)});
  rig.fetch_window.push_back(id);

  // Client closes after a response window, like a curl run finishing.
  loop_.schedule_after(net::seconds(20), [this, id] {
    fetches_.get(id)->fetch->close();
    release_fetch(id);
  });
  // The window decides when client connections die: a fetch's connection
  // lives until the fetch has both closed and left the window.
  while (rig.fetch_window.size() > 256) {
    release_fetch(rig.fetch_window.front());
    rig.fetch_window.pop_front();
  }
}

void World::release_fetch(net::SlotTable<FetchSlot>::Id id) {
  if (--fetches_.get(id)->holders == 0) fetches_.erase(id);
}

void World::pump_traffic(std::size_t rig_index) {
  if (loop_.now() >= traffic_until_) return;
  ServerRig& rig = *rigs_[rig_index];
  launch_connection(rig);
  // Jittered pacing around the rig's configured interval.
  const double jitter = 0.5 + rig.rng.uniform01();
  loop_.schedule_after(
      net::from_seconds(net::to_seconds(rig.connection_interval) * jitter),
      [this, rig_index] { pump_traffic(rig_index); });
}

void World::run_for(net::Duration span) {
  traffic_until_ = loop_.now() + span;
  for (std::size_t i = 0; i < rigs_.size(); ++i) pump_traffic(i);
  loop_.run_until(traffic_until_);
}

void World::drain(net::Duration grace) {
  // Let scheduled probes (heavy-tailed delays!) within a grace window
  // finish so reaction stats are complete.
  loop_.run_until(loop_.now() + grace);
}

void World::run() {
  run_for(scenario_.duration);
  drain();
}

}  // namespace gfwsim::gfw
