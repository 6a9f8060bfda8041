// Fleet campaign bench: the paper's measurement was a FLEET — many
// heterogeneous Shadowsocks servers (different implementations, ciphers,
// and vantage regions) watched by ONE censor. This bench runs that shape
// end to end: eight servers in a single World per shard, sharing one
// passive classifier, one prober pool, and one per-endpoint block table,
// then prints the per-server reaction matrix the Figure 10 / Table 5
// cross-implementation comparisons are made of.
//
// The fleet's campaign-level performance is measured by the benchmark
// suite's fleet_mixed workload (bench/suite), which runs this same grid;
// the event rate printed here is a single-run log line, not a gate.
#include <chrono>
#include <map>
#include <set>

#include "bench_common.h"

using namespace gfwsim;

namespace {

gfw::ServerSpec make_spec(probesim::ServerSetup::Impl impl, const char* cipher,
                          const char* region) {
  gfw::ServerSpec spec;
  spec.server.impl = impl;
  spec.server.cipher = cipher;
  spec.region = region;
  return spec;
}

std::string percent(std::size_t part, std::size_t total) {
  if (total == 0) return "-";
  return analysis::format_double(100.0 * static_cast<double>(part) /
                                     static_cast<double>(total), 1) + "%";
}

struct ReactionCounts {
  std::size_t timeout = 0, rst = 0, fin = 0, data = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using Impl = probesim::ServerSetup::Impl;
  const bench::BenchOptions options = bench::parse_bench_args(argc, argv);
  analysis::print_banner(std::cout,
                         "Fleet campaign: heterogeneous servers, one GFW");
  bench::BenchReporter report("fleet", options);

  // The implementation x cipher x region grid, every server in the SAME
  // World (contrast with the per-shard vantage points of the other
  // benches). Implementations constrain ciphers: Outline is
  // chacha20-only, the legacy stream servers take stream ciphers.
  gfw::Scenario scenario;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.connection_interval = net::seconds(90);
  scenario.classifier_base_rate = 0.35;
  scenario.fleet = {
      make_spec(Impl::kOutline107, "chacha20-ietf-poly1305", "beijing"),
      make_spec(Impl::kOutline107, "chacha20-ietf-poly1305", "unicom"),
      make_spec(Impl::kOutline110, "chacha20-ietf-poly1305", "beijing"),
      make_spec(Impl::kLibevNew, "aes-256-gcm", "beijing"),
      make_spec(Impl::kLibevNew, "chacha20-ietf-poly1305", "unicom"),
      make_spec(Impl::kLibevOld, "aes-256-ctr", "unicom"),
      make_spec(Impl::kSsPython, "aes-256-cfb", "beijing"),
      make_spec(Impl::kSsr, "rc4-md5", "unicom"),
  };
  const gfw::Scenario run_scenario =
      bench::with_options(scenario, options, /*default_seed=*/0xF1EE7CA2,
                          /*default_days=*/7);

  const auto start = std::chrono::steady_clock::now();
  const gfw::CampaignResult result = bench::run_sharded(run_scenario, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  bench::print_run_summary(std::cout, result, options, wall);

  // Per-server reaction matrix from the shared, attributed log.
  std::map<std::uint16_t, ReactionCounts> reactions;
  for (const auto& record : result.log.records()) {
    ReactionCounts& row = reactions[record.server_id];
    switch (record.reaction) {
      case probesim::Reaction::kTimeout: ++row.timeout; break;
      case probesim::Reaction::kRst: ++row.rst; break;
      case probesim::Reaction::kFinAck: ++row.fin; break;
      case probesim::Reaction::kData: ++row.data; break;
    }
  }

  std::cout << "\nPer-server reaction matrix (one shared GFW, "
            << result.shards.size() << " shards merged):\n";
  analysis::TextTable table({"id", "implementation", "cipher", "region", "probes",
                             "DATA", "RST", "FIN", "TIMEOUT", "blocks"});
  std::size_t data_rich_replay_servers = 0;
  std::size_t blocked_servers = 0;
  const std::vector<gfw::ServerStats> totals = result.fleet_totals();
  for (const gfw::ServerStats& server : totals) {
    const ReactionCounts& r = reactions[server.server_id];
    table.add_row({std::to_string(server.server_id), server.impl, server.cipher,
                   server.region, std::to_string(server.probes),
                   percent(r.data, server.probes), percent(r.rst, server.probes),
                   percent(r.fin, server.probes),
                   percent(r.timeout, server.probes),
                   std::to_string(server.blocks)});
    if (r.data > 0) ++data_rich_replay_servers;
    if (server.blocks > 0) ++blocked_servers;
  }
  table.print(std::cout);
  std::cout << "\n";

  const double event_rate =
      wall > 0.0 ? static_cast<double>(result.events_processed()) / wall : 0.0;
  report.metric("fleet campaign event rate (events/sec)",
                "single run (no paper analogue; bench/suite fleet_mixed measures it)",
                std::to_string(static_cast<std::uint64_t>(event_rate)) +
                    " events/sec across " + std::to_string(totals.size()) +
                    " servers");

  // Figure 10 / Table 5 at fleet scale: only the implementations without
  // replay protection hand the prober DATA confirmations; the fixed
  // Outline 1.1.0 and the libev family do not.
  report.metric(
      "servers answering probes with DATA",
      "Outline <= 1.0.8 and the stream legacy servers respond to replays "
      "with data; ss-libev and Outline 1.1.0 (replay defense) do not "
      "(Fig 10, Table 5)",
      std::to_string(data_rich_replay_servers) + " of " +
          std::to_string(totals.size()) + " servers in the matrix above");

  // One prober pool across the whole fleet (section 5.1's shared source
  // ips): the same prober addresses recur against different servers.
  std::map<std::uint32_t, std::set<std::uint16_t>> targets_by_prober;
  for (const auto& record : result.log.records()) {
    targets_by_prober[record.src_ip.value].insert(record.server_id);
  }
  std::size_t multi_target_probers = 0;
  for (const auto& [ip, targets] : targets_by_prober) {
    if (targets.size() >= 2) ++multi_target_probers;
  }
  report.metric("prober source IPs reused across servers",
                "one shared probing infrastructure behind thousands of "
                "source IPs (section 5.1)",
                std::to_string(multi_target_probers) + " of " +
                    std::to_string(targets_by_prober.size()) +
                    " prober IPs hit >= 2 distinct servers");
  report.metric("servers blocked (per-endpoint table)",
                "blocking is rare and per-endpoint, not fleet-wide (sec 6)",
                std::to_string(blocked_servers) + " of " +
                    std::to_string(totals.size()) + " servers");
  return 0;
}
