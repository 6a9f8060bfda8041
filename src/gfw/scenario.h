// Scenario: the pure-data description of one measurement experiment —
// which server implementation is under test, what traffic the client
// drives, how the GFW is configured, which defenses are on, how long the
// campaign runs, and the base RNG seed.
//
// A Scenario is a copyable value with no owned simulation state, so a
// runner can duplicate it across shards: shard i gets an identical copy
// plus its own seed derived from (base_seed, i). Construction of the
// actual simulation (event loop, network, hosts, server, GFW, client)
// from a Scenario is the World layer's job (gfw/world.h); execution
// policy (serial vs sharded-parallel) is the Runner layer's (gfw/runner.h).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "client/ss_client.h"
#include "client/traffic_spec.h"
#include "defense/brdgrd.h"
#include "gfw/gfw.h"
#include "gfw/rows.h"
#include "net/resources.h"
#include "probesim/probesim.h"

namespace gfwsim::gfw {

// One server of a heterogeneous fleet. Fields left at their defaults
// inherit the scenario-wide settings, so a spec only states what differs
// from the campaign baseline.
struct ServerSpec {
  probesim::ServerSetup server;
  std::uint16_t port = 8388;
  // 0.0.0.0 = the World assigns a deterministic address from its fleet
  // numbering plan. Set explicitly to co-locate several servers on one
  // address (exercises IP-level shared-fate blocking).
  net::Ipv4 ip;
  bool inside_china = false;
  // Region tag consulted by the blocking module's per-region policies
  // (BlockingConfig::region_policies); "" uses the global policy.
  std::string region;
  bool use_brdgrd = false;
  defense::BrdgrdConfig brdgrd;

  // Per-server overrides of the scenario-wide fields; nullopt = inherit.
  std::optional<client::TrafficSpec> traffic;
  std::optional<net::Duration> connection_interval;
  std::optional<bool> raw_traffic;
  std::optional<client::ClientConfig> client;
  // Per-endpoint path shaping between this server and its own driver
  // (on top of the mesh-wide defaults).
  std::optional<net::Duration> latency;
  std::optional<net::FaultProfile> faults;
};

struct Scenario {
  probesim::ServerSetup server;

  // Traffic: tunneled Shadowsocks flows (default), or raw payloads with
  // no framing (the Table 4 random-data experiments).
  bool raw_traffic = false;
  client::ClientConfig client;  // cipher defaults to the server's
  // What the client sends; each shard builds its own model instance.
  client::TrafficSpec traffic;

  // Pacing.
  net::Duration duration = net::hours(24 * 14);
  net::Duration connection_interval = net::seconds(120);

  // Topology: client inside China; server inside or outside.
  bool server_inside_china = false;

  GfwConfig gfw;  // is_domestic is filled in by the world factory

  // Resource governance (net/resources.h): per-shard budgets on the
  // metered hot allocators, deterministic exhaustion injection, bounded
  // probe admission, and per-path delivery-queue caps. All zeros — the
  // default — keep the governor provably inert: no metering, no RNG
  // stream, bit-identical transcripts and checkpoints. Each shard's
  // injection stream derives from its shard seed ^ 0xB0D6, so breaches
  // replay identically for any thread or worker count.
  struct ResourceConfig {
    net::ResourceLimits limits;
    // Concurrent in-flight probe cap + admission-queue depth; the World
    // hands it to Gfw::set_governor. 0 = unbounded.
    std::size_t probe_queue_cap = 0;
    // Per-directed-path in-flight segment cap (Network::set_queue_cap);
    // overflow drops count under DropCause::kQueueOverflow. 0 = off.
    std::size_t path_queue_cap = 0;

    bool enabled() const {
      return limits.enabled() || probe_queue_cap != 0 || path_queue_cap != 0;
    }
  };
  ResourceConfig resources;

  // Path impairment applied to every directed path of the mesh (all
  // zeros, the default, keeps the network ideal and the fault layer
  // provably inert). Each shard derives its own fault streams from its
  // shard seed, so fault patterns replay bit-identically per shard
  // regardless of thread count.
  net::FaultProfile faults;
  // Endpoint loss-tolerance tuning; consulted only when `faults` is
  // enabled (the network couples ARQ to fault enablement).
  net::ArqConfig arq;

  // Optional brdgrd on the server (section 7.1); may be toggled later.
  bool use_brdgrd = false;
  defense::BrdgrdConfig brdgrd;

  // Classifier acceleration: campaigns run fewer connections than the
  // paper's four months, so the trigger rate is scaled up to keep probe
  // counts statistically useful while every *shape* is preserved. The
  // World copies it into gfw.classifier.base_rate, which must stay at
  // its default.
  double classifier_base_rate = 0.05;

  // Test-only failure injection for the supervision layer (crash
  // containment, deterministic retry, stall deadlining — see
  // gfw/supervisor.h). Disabled by default; only recovery-path tests and
  // smoke benches turn it on. Injection schedules a single extra timer
  // in the TARGETED shard only, so every other shard's transcript is
  // bit-identical to an uninjected run.
  struct DebugFailShard {
    bool enabled = false;
    std::uint32_t shard = 0;  // which shard misbehaves
    // false: throw std::runtime_error at the injection point.
    // true: wedge the event loop (busy-wait) until the stall watchdog
    // aborts the shard — requires ShardedRunnerOptions::stall_timeout,
    // otherwise a safety bound turns the wedge into a throw.
    bool stall = false;
    net::Duration after = net::hours(1);  // sim-time of the injected fault
    // Attempts [0, fail_attempts) fail; later retries succeed. The
    // default reproduces on every retry (a deterministic crash); 1
    // models a transient fault that the first retry clears, which the
    // runner flags as nondeterministic.
    int fail_attempts = std::numeric_limits<int>::max();
    // true: instead of throwing, the injection point kills the WHOLE
    // process with std::_Exit(57) — no unwinding, no flushes. Only the
    // process-isolated DistRunner (gfw/dist_runner.h) can contain this;
    // under the in-process runners it takes the campaign down, which is
    // the point: it models a worker OOM-kill/segfault for the
    // crash-containment tests. `stall` is ignored when set.
    bool die = false;
  };
  DebugFailShard debug_fail_shard;

  // Fleet mode: when non-empty, the World builds one server (each with
  // its own client driver, optional brdgrd, and path overrides) per
  // entry inside a single simulation with ONE shared GFW — shared prober
  // pool, per-endpoint block table, per-region policy. The single-server
  // fields above remain the campaign baseline that entries inherit from,
  // and an EMPTY fleet is the degenerate case: the World then behaves
  // exactly as before (bit-identical transcripts, golden-tested), which
  // also equals a one-entry fleet of single_server_spec().
  std::vector<ServerSpec> fleet;

  // The legacy single-server fields expressed as a fleet entry; a fleet
  // containing exactly this spec reproduces the scenario byte-for-byte.
  ServerSpec single_server_spec() const {
    ServerSpec spec;
    spec.server = server;
    spec.inside_china = server_inside_china;
    spec.use_brdgrd = use_brdgrd;
    spec.brdgrd = brdgrd;
    return spec;
  }

  // Base seed; shard i runs with shard_seed(base_seed, i) (gfw/runner.h).
  std::uint64_t base_seed = 0xCA4417A16;
};

// Refuses gfw.classifier.base_rate, the World's copy of classifier_base_rate.
// The World and both runners call it first: a bad Scenario fails once.
inline void validate(const Scenario& scenario) {
  if (scenario.gfw.classifier.base_rate != ClassifierConfig{}.base_rate) {
    throw std::invalid_argument(
        "Scenario: set classifier_base_rate, not gfw.classifier.base_rate");
  }
}

// ---- Rows: every value a Scenario can set, declared once --------------------
//
// Each config struct a Scenario reaches lists its members once (gfw/rows.h).
// scenario_fingerprint (gfw/checkpoint.cpp) and its test walk these tables.

// debug_fail_shard is test-only failure injection: a rerun with the fault
// off must resume the faulted run's journal.
GFWSIM_ROWS(Scenario, GFWSIM_ROW(server), GFWSIM_ROW(raw_traffic), GFWSIM_ROW(client),
            GFWSIM_ROW(traffic), GFWSIM_ROW(duration), GFWSIM_ROW(connection_interval),
            GFWSIM_ROW(server_inside_china), GFWSIM_ROW(gfw), GFWSIM_ROW(resources),
            GFWSIM_ROW(faults), GFWSIM_ROW(arq), GFWSIM_ROW(use_brdgrd), GFWSIM_ROW(brdgrd),
            GFWSIM_ROW(classifier_base_rate), GFWSIM_SKIP(debug_fail_shard),
            GFWSIM_ROW(fleet), GFWSIM_ROW(base_seed));
GFWSIM_ROWS(ServerSpec, GFWSIM_ROW(server), GFWSIM_ROW(port), GFWSIM_ROW(ip),
            GFWSIM_ROW(inside_china), GFWSIM_ROW(region), GFWSIM_ROW(use_brdgrd),
            GFWSIM_ROW(brdgrd), GFWSIM_ROW(traffic), GFWSIM_ROW(connection_interval),
            GFWSIM_ROW(raw_traffic), GFWSIM_ROW(client), GFWSIM_ROW(latency),
            GFWSIM_ROW(faults));
GFWSIM_ROWS(probesim::ServerSetup, GFWSIM_ROW(impl), GFWSIM_ROW(cipher), GFWSIM_ROW(password));
// The World fills in an unset is_domestic. classifier.base_rate is its
// copy of classifier_base_rate, so validate() refuses a Scenario that
// sets it, and the fingerprint skips it.
GFWSIM_ROWS(GfwConfig, GFWSIM_ROW(is_domestic), GFWSIM_ROW(classifier), GFWSIM_ROW(blocking),
            GFWSIM_ROW(enable_staging), GFWSIM_ROW(probe_arq),
            GFWSIM_ROW(evidence_rst), GFWSIM_ROW(evidence_fin), GFWSIM_ROW(evidence_timeout));
GFWSIM_ROWS(ClassifierConfig, GFWSIM_ROW(use_length_feature), GFWSIM_ROW(use_entropy_feature),
            GFWSIM_SKIP(base_rate));
GFWSIM_ROWS(BlockingConfig, GFWSIM_ROW(confirmation_threshold), GFWSIM_ROW(block_probability),
            GFWSIM_ROW(sensitive_block_probability), GFWSIM_ROW(block_by_ip_fraction),
            GFWSIM_ROW(min_block_duration), GFWSIM_ROW(max_block_duration),
            GFWSIM_ROW(region_policies));
GFWSIM_ROWS(RegionPolicy, GFWSIM_ROW(block_probability),
            GFWSIM_ROW(sensitive_block_probability));
GFWSIM_ROWS(net::FaultProfile, GFWSIM_ROW(loss), GFWSIM_ROW(duplicate), GFWSIM_ROW(reorder),
            GFWSIM_ROW(reorder_delay), GFWSIM_ROW(jitter), GFWSIM_ROW(outages),
            GFWSIM_ROW(flap_period), GFWSIM_ROW(flap_down));
GFWSIM_ROWS(net::LinkOutage, GFWSIM_ROW(start), GFWSIM_ROW(duration));
GFWSIM_ROWS(net::ArqConfig, GFWSIM_ROW(rto), GFWSIM_ROW(max_data_retries),
            GFWSIM_ROW(syn_timeout), GFWSIM_ROW(max_syn_retries), GFWSIM_ROW(idle_timeout));
GFWSIM_ROWS(defense::BrdgrdConfig, GFWSIM_ROW(min_window), GFWSIM_ROW(max_window),
            GFWSIM_ROW(randomize_window), GFWSIM_ROW(sticky_period),
            GFWSIM_ROW(restore_after));
GFWSIM_ROWS(client::ClientConfig, GFWSIM_ROW(cipher), GFWSIM_ROW(password),
            GFWSIM_ROW(merge_header_and_data), GFWSIM_ROW(embed_timestamp));
GFWSIM_ROWS(client::TrafficSpec, GFWSIM_ROW(kind), GFWSIM_ROW(sites), GFWSIM_ROW(min_len),
            GFWSIM_ROW(max_len), GFWSIM_ROW(min_entropy), GFWSIM_ROW(max_entropy),
            GFWSIM_ROW(custom));
GFWSIM_ROWS(client::BrowsingTraffic::Site, GFWSIM_ROW(hostname), GFWSIM_ROW(https),
            GFWSIM_ROW(weight));
GFWSIM_ROWS(Scenario::ResourceConfig, GFWSIM_ROW(limits), GFWSIM_ROW(probe_queue_cap),
            GFWSIM_ROW(path_queue_cap));
GFWSIM_ROWS(net::ResourceLimits, GFWSIM_ROW(total_bytes), GFWSIM_ROW(unit_caps),
            GFWSIM_ROW(fail_at_acquisition), GFWSIM_ROW(fail_probability));

}  // namespace gfwsim::gfw
