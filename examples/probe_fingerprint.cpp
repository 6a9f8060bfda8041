// Prober-infrastructure fingerprinting (paper sections 3.3-3.4, condensed).
//
// Runs a two-week campaign against an OutlineVPN server, then analyzes the
// probe log the way the paper analyzed its server-side pcaps: source IP
// reuse, AS mix, source ports, TTLs, and the shared TCP-timestamp
// sequences that expose central control.
//
//   ./examples/probe_fingerprint
#include <iostream>

#include "analysis/report.h"
#include "analysis/stats.h"
#include "analysis/tsval.h"
#include "gfw/world.h"

using namespace gfwsim;

int main() {
  gfw::Scenario config;
  config.server.impl = probesim::ServerSetup::Impl::kOutline107;
  config.server.cipher = "chacha20-ietf-poly1305";
  config.duration = net::hours(24 * 14);
  config.connection_interval = net::seconds(90);
  config.classifier_base_rate = 0.30;

  std::cout << "Running a 14-day simulated campaign (client in China -> "
            << probesim::impl_name(config.server.impl) << " abroad)...\n";
  gfw::World campaign(config, 0xF1A9);
  campaign.run();

  const auto& records = campaign.log().records();
  std::cout << "connections: " << campaign.connections_launched()
            << ", probes observed at server: " << records.size() << "\n\n";

  // Per-IP reuse.
  std::map<net::Ipv4, int> per_ip;
  analysis::Histogram per_asn;
  analysis::Cdf ports;
  analysis::Histogram ttls;
  std::vector<analysis::TsvalPoint> tsval_points;
  for (const auto& record : records) {
    ++per_ip[record.src_ip];
    per_asn.add(record.asn);
    ports.add(record.src_port);
    ttls.add(record.ttl);
    tsval_points.push_back({record.sent_at, record.tsval});
  }

  int reused = 0;
  int busiest = 0;
  for (const auto& [ip, count] : per_ip) {
    reused += count > 1;
    busiest = std::max(busiest, count);
  }
  std::cout << "unique prober IPs: " << per_ip.size() << "  (reused: "
            << analysis::format_percent(per_ip.empty() ? 0
                                                       : static_cast<double>(reused) /
                                                             per_ip.size())
            << ", busiest sent " << busiest << " probes)\n";

  analysis::TextTable asn_table({"AS", "probes"});
  for (const auto& [asn, count] : per_asn.buckets()) {
    asn_table.add_row({"AS" + std::to_string(asn), std::to_string(count)});
  }
  asn_table.print(std::cout);

  if (!ports.empty()) {
    std::cout << "\nsource ports: min=" << ports.min()
              << "  fraction in Linux ephemeral range [32768,60999]: "
              << analysis::format_percent(ports.fraction_below(60999.5) -
                                          ports.fraction_below(32767.5))
              << "\n";
  }

  std::cout << "TTLs seen:";
  for (const auto& [ttl, count] : ttls.buckets()) std::cout << " " << ttl << "(x" << count << ")";
  std::cout << "\n\n";

  const auto clusters = analysis::cluster_tsval_sequences(tsval_points);
  std::cout << "TSval sequence clustering (despite " << per_ip.size()
            << " source IPs):\n";
  analysis::TextTable tsval_table({"process", "probes", "rate (Hz)"});
  int index = 0;
  for (const auto& cluster : clusters) {
    if (cluster.count < 3) continue;
    tsval_table.add_row({"#" + std::to_string(++index), std::to_string(cluster.count),
                         analysis::format_double(cluster.rate_hz, 1)});
  }
  tsval_table.print(std::cout);
  std::cout << "=> a handful of shared counters behind thousands of addresses: "
               "the probers are centrally controlled.\n";
  return 0;
}
