// Golden-transcript guard for the zero-copy payload path.
//
// One mid-size campaign (faults + ARQ on, two shards) must produce
// byte-identical merged ProbeLog and tap-record streams forever: the
// golden SHA-1 digests below were captured from the seed code path
// (deep-copied Bytes payloads, bit-wise GHASH, byte-wise AES) before the
// PayloadRef/table-kernel overhaul landed. Any change that perturbs a
// single payload byte, header field, drop cause, or probe record — or
// consumes one extra RNG draw — moves the digests and fails here.
//
// Every field of every record goes into the digest, including the full
// payload bytes of every tap record (the bytes PayloadRef shares between
// the wire copy, the tap, the fault-layer duplicate, and the ARQ
// retransmit queue).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha1.h"
#include "gfw/runner.h"

namespace gfwsim {
namespace {

// Captured from the seed path (see file comment); must never change.
constexpr char kGoldenTapDigest[] = "6671e03480256437d50c0d51573f3973c8aa5b6a";
constexpr char kGoldenProbeLogDigest[] = "9325c8231e04e19fad3d2c681b8abc7e32135743";

constexpr std::uint32_t kShards = 2;

gfw::Scenario faulty_scenario() {
  gfw::Scenario scenario;
  scenario.server.impl = probesim::ServerSetup::Impl::kOutline107;
  scenario.server.cipher = "chacha20-ietf-poly1305";
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(24);
  scenario.connection_interval = net::seconds(60);
  scenario.classifier_base_rate = 0.35;
  scenario.base_seed = 0x601DE2;
  scenario.faults.loss = 0.02;
  scenario.faults.duplicate = 0.01;
  scenario.faults.reorder = 0.01;
  scenario.faults.jitter = net::milliseconds(5);
  return scenario;
}

void hash_string(crypto::Sha1& h, const std::string& s) {
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// Serializes one tap record — every header field plus the raw payload
// bytes — into the digest.
void hash_record(crypto::Sha1& h, const net::SegmentRecord& rec) {
  std::ostringstream line;
  line << rec.segment.src.addr.value << ':' << rec.segment.src.port << '>'
       << rec.segment.dst.addr.value << ':' << rec.segment.dst.port << ' '
       << static_cast<int>(rec.segment.flags) << ' ' << rec.segment.ip_id << ' '
       << static_cast<int>(rec.segment.ttl) << ' ' << rec.segment.tsval << ' '
       << rec.segment.window << ' ' << rec.segment.seq << ' '
       << rec.segment.ack_seq << ' ' << rec.segment.retransmission << ' '
       << rec.segment.sent_at.count() << ' ' << rec.arrive_at.count() << ' '
       << rec.dropped << ' ' << static_cast<int>(rec.cause) << ' '
       << rec.duplicate << ' ' << rec.fault_delay.count() << ' '
       << rec.segment.payload.size() << '\n';
  hash_string(h, line.str());
  const ByteSpan payload = rec.segment.payload;
  h.update(payload);
}

void hash_probe_record(crypto::Sha1& h, const gfw::ProbeRecord& rec) {
  std::ostringstream line;
  line << rec.sent_at.count() << ' ' << static_cast<int>(rec.type) << ' '
       << rec.server.addr.value << ':' << rec.server.port << ' '
       << rec.src_ip.value << ' ' << rec.asn << ' ' << rec.src_port << ' '
       << static_cast<int>(rec.ttl) << ' ' << rec.tsval << ' '
       << rec.tsval_process << ' ' << rec.payload_len << ' '
       << static_cast<int>(rec.reaction) << ' ' << rec.connect_retries << ' '
       << rec.replay_delay.count() << ' ' << rec.is_first_replay_of_payload << ' '
       << rec.trigger_payload_hash << '\n';
  hash_string(h, line.str());
}

std::string hex_digest(const crypto::Sha1::Digest& d) {
  return hex_encode(ByteSpan(d.data(), d.size()));
}

struct Transcript {
  std::string tap_digest;
  std::string probe_log_digest;
};

Transcript run_and_digest(unsigned threads,
                          const gfw::Scenario& scenario = faulty_scenario()) {
  gfw::ShardedRunner runner({kShards, threads});

  // Per-shard tap hashers, combined in shard order afterwards — the same
  // contract the ProbeLog merge follows, so the result is independent of
  // which thread ran which shard.
  std::vector<std::shared_ptr<crypto::Sha1>> hashers(kShards);
  runner.set_before_run([&hashers](gfw::World& world, std::uint32_t shard) {
    auto hash = std::make_shared<crypto::Sha1>();
    hashers[shard] = hash;
    world.network().set_tap(
        [hash](const net::SegmentRecord& rec) { hash_record(*hash, rec); });
  });

  const gfw::CampaignResult result = runner.run(scenario);

  crypto::Sha1 tap_hash;
  for (const auto& shard_hash : hashers) {
    const auto digest = shard_hash->finish();
    tap_hash.update(ByteSpan(digest.data(), digest.size()));
  }

  crypto::Sha1 log_hash;
  for (const auto& record : result.log.records()) {
    hash_probe_record(log_hash, record);
  }

  EXPECT_GT(result.log.size(), 100u);
  EXPECT_GT(result.totals().retransmissions, 0u);  // faults + ARQ really were on
  EXPECT_TRUE(result.teardown_clean()) << result.teardown_failures();
  return {hex_digest(tap_hash.finish()), hex_digest(log_hash.finish())};
}

TEST(TranscriptEquivalence, MatchesSeedPathGoldenDigests) {
  const Transcript t = run_and_digest(/*threads=*/2);
  EXPECT_EQ(t.tap_digest, kGoldenTapDigest);
  EXPECT_EQ(t.probe_log_digest, kGoldenProbeLogDigest);
}

// The fleet back-compat contract: a Scenario whose fleet holds exactly
// the single-server entry the legacy fields describe must replay the SAME
// simulation — same seeds, same host order, same RNG draws — so its tap
// and probe-log digests land on the very same goldens.
TEST(TranscriptEquivalence, OneEntryFleetMatchesLegacyGoldenDigests) {
  gfw::Scenario fleet = faulty_scenario();
  fleet.fleet.push_back(fleet.single_server_spec());
  const Transcript t = run_and_digest(/*threads=*/2, fleet);
  EXPECT_EQ(t.tap_digest, kGoldenTapDigest);
  EXPECT_EQ(t.probe_log_digest, kGoldenProbeLogDigest);
}

TEST(TranscriptEquivalence, DigestIndependentOfThreadCount) {
  const Transcript serial = run_and_digest(/*threads=*/1);
  const Transcript pooled = run_and_digest(/*threads=*/2);
  EXPECT_EQ(serial.tap_digest, pooled.tap_digest);
  EXPECT_EQ(serial.probe_log_digest, pooled.probe_log_digest);
}

}  // namespace
}  // namespace gfwsim
