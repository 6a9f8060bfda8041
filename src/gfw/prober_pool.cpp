#include "gfw/prober_pool.h"

#include <cmath>

namespace gfwsim::gfw {

namespace {

// Table 3: the prober addresses' ASes, weighted by their unique-address
// counts; prefixes are synthetic /16s standing in for each AS's space.
struct AsProfile {
  int as_number;
  const char* name;
  double weight;
  net::Ipv4 prefix;
};
constexpr AsProfile kAsProfiles[] = {
    {4837, "CHINA169-BACKBONE CNCGROUP China169 Backbone", 6262, net::Ipv4(202, 96, 0, 0)},
    {4134, "CHINANET-BACKBONE No.31, Jin-rong Street", 5188, net::Ipv4(218, 30, 0, 0)},
    {17622, "CNCGROUP-GZ China Unicom Guangzhou network", 315, net::Ipv4(58, 248, 0, 0)},
    {17621, "CNCGROUP-SH China Unicom Shanghai network", 263, net::Ipv4(112, 64, 0, 0)},
    {17816, "CHINA169-GZ China Unicom IP network", 104, net::Ipv4(113, 128, 0, 0)},
    {4847, "CNIX-AP China Networks Inter-Exchange", 101, net::Ipv4(124, 235, 0, 0)},
    {58563, "CHINANET Hubei", 44, net::Ipv4(175, 42, 0, 0)},
    {17638, "CHINATELECOM Tianjin", 17, net::Ipv4(221, 213, 0, 0)},
    {9808, "CMNET-GD Guangdong Mobile", 2, net::Ipv4(120, 192, 0, 0)},
    {4812, "CHINANET-SH-AP China Telecom Shanghai", 1, net::Ipv4(116, 224, 0, 0)},
    {24400, "CMNET-V4SHANGHAI-AS-AP Shanghai Mobile", 1, net::Ipv4(117, 184, 0, 0)},
    {56046, "CMNET-JIANGSU-AP China Mobile Jiangsu", 1, net::Ipv4(223, 111, 0, 0)},
    {56047, "CMNET-HUNAN-AP China Mobile Hunan", 1, net::Ipv4(223, 144, 0, 0)},
};

// Lognormal parameters for each address's total probe budget (Figure 3):
// the mean is ~4.2 probes/IP with <25% single-use and a max around 44.
constexpr double kBudgetLogMean = 1.05;
constexpr double kBudgetLogStddev = 0.9;
constexpr int kBudgetCap = 47;
// How many addresses are concurrently "hot".
constexpr std::size_t kActiveSetSize = 64;
// Source ports (Figure 5): ~90% in the Linux default ephemeral range, the
// rest anywhere in [1212, 65237] outside it (1212 is the observed minimum).
constexpr double kLinuxEphemeralFraction = 0.90;
constexpr std::uint16_t kEphemeralLow = 32768, kEphemeralHigh = 60999;
constexpr std::uint16_t kOtherLow = 1212, kOtherHigh = 65237;
// IP TTL within 46-50 (section 3.4).
constexpr std::uint8_t kTtlMin = 46, kTtlMax = 50;

}  // namespace

ProberPool::ProberPool(net::Network& net, std::uint64_t seed) : net_(net), rng_(seed) {
  for (const AsProfile& profile : kAsProfiles) as_weights_.push_back(profile.weight);

  // Figure 6: at least seven shared TSval processes. One 250 Hz process
  // stamps the great majority; five more 250 Hz processes and a rarely
  // used 1000 Hz one cover the rest. Offsets are random so some sequences
  // wrap past 2^32 during long experiments.
  tsval_processes_ = {
      {250.0, rng_.next_u32(), 0.82},
      {250.0, rng_.next_u32(), 0.05},
      {250.0, rng_.next_u32(), 0.04},
      {250.0, rng_.next_u32(), 0.035},
      {250.0, rng_.next_u32(), 0.025},
      {250.0, rng_.next_u32(), 0.025},
      {1000.0, rng_.next_u32(), 0.005},
  };
  tsval_weights_.reserve(tsval_processes_.size());
  for (const auto& process : tsval_processes_) tsval_weights_.push_back(process.weight);
}

ProberPool::Identity ProberPool::create_identity() {
  Identity identity;
  for (;;) {
    const auto& profile = kAsProfiles[rng_.weighted_index(as_weights_)];
    const std::uint32_t host_part = static_cast<std::uint32_t>(rng_.uniform(1, 0xfffe));
    identity.ip = net::Ipv4(profile.prefix.value | host_part);
    identity.asn = profile.as_number;
    if (asn_by_ip_.count(identity.ip) == 0) break;  // avoid rare collisions
  }
  asn_by_ip_[identity.ip] = identity.asn;
  return identity;
}

ProberPool::Identity ProberPool::acquire() {
  if (active_.size() < kActiveSetSize) {
    // Grow the hot set with a fresh identity and a lognormal probe budget.
    const double z = std::sqrt(-2.0 * std::log(std::max(1e-12, rng_.uniform01()))) *
                     std::cos(6.283185307179586 * rng_.uniform01());
    const int budget = std::min(
        kBudgetCap, std::max(1, static_cast<int>(std::lround(
                                    std::exp(kBudgetLogMean + kBudgetLogStddev * z)))));
    active_.push_back(ActiveEntry{create_identity(), budget});
  }

  const std::size_t index = rng_.uniform(0, active_.size() - 1);
  ActiveEntry& entry = active_[index];
  Identity identity = entry.identity;

  // Every probe is stamped by one of the shared TSval processes,
  // independent of which address fronts it — the central-control tell.
  identity.tsval_process = static_cast<int>(rng_.weighted_index(tsval_weights_));

  ++acquisitions_;
  ++probes_per_ip_[identity.ip];
  if (--entry.remaining_budget <= 0) {
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
  }
  return identity;
}

net::Host& ProberPool::host_for(const Identity& identity) {
  return net_.add_host(identity.ip);  // idempotent
}

net::ConnectOptions ProberPool::connect_options(const Identity& identity, crypto::Rng& rng) {
  net::ConnectOptions options;

  if (rng.bernoulli(kLinuxEphemeralFraction)) {
    options.src_port = static_cast<std::uint16_t>(rng.uniform(kEphemeralLow, kEphemeralHigh));
  } else {
    // The non-ephemeral tail: anywhere in [kOtherLow, kOtherHigh] but
    // outside the Linux range (otherwise the 90/10 split would skew).
    const std::uint64_t below = kEphemeralLow - kOtherLow;
    const std::uint64_t above = kOtherHigh - kEphemeralHigh;
    const std::uint64_t pick = rng.uniform(0, below + above - 1);
    options.src_port = static_cast<std::uint16_t>(
        pick < below ? kOtherLow + pick : kEphemeralHigh + 1 + (pick - below));
  }

  net::HeaderProfile header;
  header.ttl = static_cast<std::uint8_t>(rng.uniform(kTtlMin, kTtlMax));
  const int process = identity.tsval_process;
  header.tsval = [this, process](net::TimePoint now) { return tsval_at(process, now); };
  // No clear pattern in prober IP IDs (section 3.4): random per segment.
  auto* ipid_rng = &rng_;
  header.ip_id = [ipid_rng] { return static_cast<std::uint16_t>(ipid_rng->uniform(0, 0xffff)); };
  options.header = std::move(header);
  return options;
}

int ProberPool::asn_of(net::Ipv4 ip) const {
  const auto it = asn_by_ip_.find(ip);
  return it == asn_by_ip_.end() ? 0 : it->second;
}

std::uint32_t ProberPool::tsval_at(int process, net::TimePoint t) const {
  const auto& p = tsval_processes_.at(static_cast<std::size_t>(process));
  const double ticks = net::to_seconds(t) * p.rate_hz;
  return p.offset + static_cast<std::uint32_t>(static_cast<std::uint64_t>(ticks));
}

}  // namespace gfwsim::gfw
