// The sharded runner's contract: merged results are bit-identical for
// any thread count, shards never share RNG streams, and the merged log
// partitions cleanly into the per-shard slices the summaries describe.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "analysis/report.h"
#include "analysis/stats.h"
#include "gfw/runner.h"

namespace gfwsim {
namespace {

gfw::Scenario small_scenario() {
  gfw::Scenario scenario;
  scenario.server.impl = probesim::ServerSetup::Impl::kOutline107;
  scenario.duration = net::hours(12);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.3;
  scenario.base_seed = 0x5AA3D;
  return scenario;
}

// Every field of every record, plus the shard summaries — any divergence
// between runs shows up here.
std::string transcript(const gfw::CampaignResult& result) {
  std::ostringstream out;
  for (const auto& shard : result.shards) {
    out << "[shard " << shard.shard_index << " seed " << shard.seed << " conns "
        << shard.connections_launched << " offset " << shard.log_offset << " probes "
        << shard.probes << " tx " << shard.segments_transmitted << " rx "
        << shard.segments_delivered << " loss " << shard.segments_dropped_loss
        << " dup " << shard.segments_duplicated << " reord "
        << shard.segments_reordered << " rtx " << shard.retransmissions << " clean "
        << shard.teardown.clean() << "]";
  }
  out << "|";
  for (const auto& record : result.log.records()) {
    out << probesim::probe_type_name(record.type) << "," << record.payload_len << ","
        << record.src_ip.to_string() << "," << record.src_port << ","
        << static_cast<int>(record.ttl) << "," << record.tsval << ","
        << probesim::reaction_code(record.reaction) << "," << record.sent_at.count()
        << ";";
  }
  return out.str();
}

// The analysis output a bench would print from this result.
std::string report_output(const gfw::CampaignResult& result) {
  analysis::Histogram lengths;
  for (const auto& record : result.log.records()) {
    lengths.add(static_cast<std::int64_t>(record.payload_len));
  }
  std::ostringstream out;
  analysis::print_histogram(out, lengths, "payload lengths:");
  return out.str();
}

TEST(ShardedRunner, MergedResultIndependentOfThreadCount) {
  gfw::ShardedRunner serial({4, 1});
  gfw::ShardedRunner pooled({4, 4});
  const gfw::CampaignResult a = serial.run(small_scenario());
  const gfw::CampaignResult b = pooled.run(small_scenario());

  EXPECT_EQ(transcript(a), transcript(b));
  EXPECT_EQ(report_output(a), report_output(b));
  EXPECT_GT(a.log.size(), 0u);
}

TEST(ShardedRunner, ShardSlicesPartitionTheMergedLog) {
  gfw::ShardedRunner runner({3, 2});
  const gfw::CampaignResult result = runner.run(small_scenario());

  ASSERT_EQ(result.shards.size(), 3u);
  std::size_t expected_offset = 0;
  std::size_t connections = 0;
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.log_offset, expected_offset);
    expected_offset += shard.probes;
    connections += shard.connections_launched;
  }
  EXPECT_EQ(expected_offset, result.log.size());
  EXPECT_EQ(connections, result.totals().connections_launched);
}

TEST(ShardedRunner, SerialRunMatchesSingleShardPool) {
  const gfw::CampaignResult a = gfw::run_serial(small_scenario());
  gfw::ShardedRunner runner({1, 4});
  const gfw::CampaignResult b = runner.run(small_scenario());
  EXPECT_EQ(transcript(a), transcript(b));
}

TEST(ShardedRunner, ShardSeedsArePairwiseDistinct) {
  // Distinct across shards AND across neighbouring base seeds: the
  // SplitMix64 derivation must not alias (base, i) with (base+1, j).
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ull, 1ull, 0xCA4417A16ull, 0xFFFFFFFFFFFFFFFFull}) {
    for (std::uint32_t shard = 0; shard < 64; ++shard) {
      EXPECT_TRUE(seeds.insert(gfw::shard_seed(base, shard)).second)
          << "collision at base " << base << " shard " << shard;
    }
  }
}

TEST(ShardedRunner, ShardRngStreamsDoNotOverlap) {
  // The first 16 outputs of every shard's generator are distinct — the
  // streams start far apart, not staggered copies of one another.
  std::set<std::uint64_t> outputs;
  for (std::uint32_t shard = 0; shard < 64; ++shard) {
    crypto::Rng rng(gfw::shard_seed(0xCA4417A16, shard));
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(outputs.insert(rng.next_u64()).second)
          << "overlapping stream at shard " << shard << " step " << i;
    }
  }
}

}  // namespace
}  // namespace gfwsim
