#include <gtest/gtest.h>

#include "analysis/tsval.h"
#include "gfw/prober_pool.h"

namespace gfwsim::gfw {
namespace {

struct PoolFixture : ::testing::Test {
  net::EventLoop loop;
  net::Network net{loop};
  ProberPool pool{net, 0xAB};
  crypto::Rng rng{0xCD};
};

TEST_F(PoolFixture, AsDistributionMatchesTable3Dominance) {
  std::map<int, int> per_asn;
  for (int i = 0; i < 20000; ++i) ++per_asn[pool.acquire().asn];

  const int total = 20000;
  // AS4837 and AS4134 together account for the overwhelming majority.
  const double top2 = static_cast<double>(per_asn[4837] + per_asn[4134]) / total;
  EXPECT_GT(top2, 0.85);
  EXPECT_GT(per_asn[4837], per_asn[4134]);  // 6262 vs 5188 in Table 3
  // The long tail exists.
  EXPECT_GT(per_asn[17622] + per_asn[17621] + per_asn[17816] + per_asn[4847], 0);
}

TEST_F(PoolFixture, AddressReuseMatchesFigure3) {
  for (int i = 0; i < 30000; ++i) pool.acquire();
  const auto& counts = pool.probes_per_address();
  ASSERT_GT(counts.size(), 1000u);

  int once = 0, max_count = 0;
  for (const auto& [ip, count] : counts) {
    once += (count == 1);
    max_count = std::max(max_count, count);
  }
  // Paper: >75% of addresses sent more than one probe.
  EXPECT_LT(static_cast<double>(once) / counts.size(), 0.30);
  // Busiest address: tens of probes, not hundreds (Table 2 max: 44).
  EXPECT_GT(max_count, 15);
  EXPECT_LE(max_count, 47);
  // Mean probes per address ~4.2 (51837 / 12300).
  const double mean = 30000.0 / counts.size();
  EXPECT_NEAR(mean, 4.2, 1.6);
}

TEST_F(PoolFixture, SourcePortsMatchFigure5) {
  int in_linux_range = 0, below_1212 = 0, min_port = 65535;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto identity = pool.acquire();
    const auto options = pool.connect_options(identity, rng);
    const int port = options.src_port;
    min_port = std::min(min_port, port);
    if (port >= 32768 && port <= 60999) ++in_linux_range;
    if (port < 1212) ++below_1212;
  }
  EXPECT_NEAR(static_cast<double>(in_linux_range) / n, 0.90, 0.02);
  EXPECT_EQ(below_1212, 0);
  EXPECT_GE(min_port, 1212);
}

TEST_F(PoolFixture, TtlWithinObservedRange) {
  for (int i = 0; i < 500; ++i) {
    const auto identity = pool.acquire();
    const auto options = pool.connect_options(identity, rng);
    EXPECT_GE(options.header->ttl, 46);
    EXPECT_LE(options.header->ttl, 50);
  }
}

TEST_F(PoolFixture, TsvalProcessesAreSharedAcrossAddresses) {
  // Figure 6's central-control side channel: many addresses, few counter
  // sequences. Collect (time, tsval) points over a simulated day and
  // cluster them.
  std::vector<analysis::TsvalPoint> points;
  std::set<std::uint32_t> addresses;
  for (int i = 0; i < 4000; ++i) {
    const auto at = net::seconds(i * 20);  // spread over ~22 hours
    const auto identity = pool.acquire();
    addresses.insert(identity.ip.value);
    points.push_back({at, pool.tsval_at(identity.tsval_process, at)});
  }
  ASSERT_GT(addresses.size(), 500u);

  const auto clusters = analysis::cluster_tsval_sequences(points);
  // Seven underlying processes; clustering may split/merge at the margin.
  EXPECT_GE(clusters.size(), 5u);
  EXPECT_LE(clusters.size(), 12u);

  // Dominant process carries the great majority.
  EXPECT_GT(static_cast<double>(clusters[0].count) / points.size(), 0.6);
  // Rates recover ~250 Hz for the big clusters.
  EXPECT_NEAR(clusters[0].rate_hz, 250.0, 5.0);

  bool found_1000hz = false;
  for (const auto& cluster : clusters) {
    if (cluster.count >= 3 && std::abs(cluster.rate_hz - 1000.0) < 20.0) {
      found_1000hz = true;
    }
  }
  EXPECT_TRUE(found_1000hz);
}

TEST_F(PoolFixture, ProberAddressesAreRecognized) {
  const auto identity = pool.acquire();
  EXPECT_TRUE(pool.is_prober_address(identity.ip));
  EXPECT_EQ(pool.asn_of(identity.ip), identity.asn);
  EXPECT_FALSE(pool.is_prober_address(net::Ipv4(8, 8, 8, 8)));
  EXPECT_EQ(pool.asn_of(net::Ipv4(8, 8, 8, 8)), 0);
}

TEST_F(PoolFixture, TsvalWrapsAroundTwoToThirtyTwo) {
  // Force a process whose offset is near 2^32 and check wraparound.
  const auto& processes = pool.tsval_processes();
  ASSERT_FALSE(processes.empty());
  // At some simulated time, offset + ticks exceeds 2^32 and wraps (the
  // arithmetic is modular by construction of uint32).
  const std::uint32_t early = pool.tsval_at(0, net::seconds(10));
  const std::uint32_t later = pool.tsval_at(0, net::seconds(10 + 200000000));
  EXPECT_NE(early, later);  // it ticks
}

}  // namespace
}  // namespace gfwsim::gfw
