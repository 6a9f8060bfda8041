// Checkpoint format stability: the journal is what lets a multi-day
// campaign survive a kill, so its byte layout must not drift silently.
// The round-trip tests pin serialize∘parse == identity in both
// directions, the golden digests pin the exact bytes version 3 produces,
// and the rejection tests pin the failure modes (wrong magic, older or
// future version, unknown frame kind, out-of-range shard index, foreign
// campaign, torn tail).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "crypto/sha1.h"
#include "gfw/checkpoint.h"
#include "gfw/dist_runner.h"
#include "gfw/world.h"
#include "proxy/cipher.h"

namespace gfwsim {
namespace {

// A fully-populated synthetic shard: every field non-default so a
// dropped or reordered field moves the golden digest.
gfw::ShardSummary make_summary() {
  gfw::ShardSummary s;
  s.shard_index = 3;
  s.seed = 0xDEADBEEFCAFEF00Dull;
  s.connections_launched = 101;
  s.control_contacts = 1;
  s.flows_inspected = 99;
  s.flows_flagged = 17;
  s.segments_transmitted = 5000;
  s.segments_delivered = 4900;
  s.payload_bytes_delivered = 123456789;
  s.segments_dropped_middlebox = 40;
  s.segments_dropped_loss = 50;
  s.segments_dropped_outage = 10;
  s.segments_duplicated = 25;
  s.segments_reordered = 12;
  s.retransmissions = 33;
  s.probe_connect_retries = 4;
  s.events_processed = 777777;
  s.teardown.leaked_established = 0;
  s.teardown.live_established = 2;
  s.teardown.embryonic = 1;
  s.teardown.half_closed = 3;
  s.teardown.stale_registrations = 0;
  s.teardown.expired_registrations = 7;
  s.teardown.pending_timers = 5;
  s.teardown.timers_overdue = false;
  s.teardown.segments_in_flight = 0;
  s.teardown.accounting_balanced = true;
  gfw::BlockingModule::BlockEntry port_block;
  port_block.server_ip = net::Ipv4(203, 0, 113, 10);
  port_block.port = 8388;
  port_block.blocked_at = net::hours(5);
  port_block.unblock_at = net::hours(29);
  s.blocking_history.push_back(port_block);
  gfw::BlockingModule::BlockEntry ip_block;
  ip_block.server_ip = net::Ipv4(203, 0, 113, 11);
  ip_block.blocked_at = net::hours(7);
  ip_block.unblock_at = net::hours(55);
  s.blocking_history.push_back(ip_block);
  s.probes = 2;
  return s;
}

gfw::ProbeLog make_log() {
  gfw::ProbeLog log;
  gfw::ProbeRecord replay;
  replay.sent_at = net::seconds(12345);
  replay.type = probesim::ProbeType::kR3;
  replay.server = {net::Ipv4(203, 0, 113, 10), 8388};
  replay.src_ip = net::Ipv4(221, 4, 18, 99);
  replay.asn = 4134;
  replay.src_port = 31022;
  replay.ttl = 47;
  replay.tsval = 0xABCD1234;
  replay.tsval_process = 2;
  replay.payload_len = 208;
  replay.reaction = probesim::Reaction::kRst;
  replay.connect_retries = 1;
  replay.replay_delay = net::hours(570);  // the paper's maximum
  replay.is_first_replay_of_payload = true;
  replay.trigger_payload_hash = 0x1122334455667788ull;
  log.add(replay);
  gfw::ProbeRecord random_probe;
  random_probe.sent_at = net::seconds(99999);
  random_probe.type = probesim::ProbeType::kNR2;
  random_probe.server = {net::Ipv4(203, 0, 113, 10), 8388};
  random_probe.src_ip = net::Ipv4(112, 97, 3, 8);
  random_probe.asn = 4837;
  random_probe.src_port = 50001;
  random_probe.ttl = 52;
  random_probe.tsval = 17;
  random_probe.tsval_process = -1;
  random_probe.payload_len = 221;
  random_probe.reaction = probesim::Reaction::kTimeout;
  random_probe.connect_retries = 0;
  random_probe.replay_delay = net::Duration::zero();
  random_probe.is_first_replay_of_payload = false;
  random_probe.trigger_payload_hash = 0;
  log.add(random_probe);
  return log;
}

gfw::CheckpointHeader make_header() {
  gfw::CheckpointHeader header;
  header.shard_count = 8;
  header.base_seed = 0x5AA3D;
  header.scenario_fingerprint = 0xFEEDFACE12345678ull;
  return header;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "gfwsim_checkpoint_" + name;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  Bytes data(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  return data;
}

void write_file(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

TEST(Checkpoint, ShardFrameRoundTripsByteIdentically) {
  const gfw::ShardSummary summary = make_summary();
  const gfw::ProbeLog log = make_log();

  const Bytes bytes = gfw::serialize_shard(summary, log);
  const gfw::ShardRun parsed = gfw::parse_shard(bytes);
  const Bytes again = gfw::serialize_shard(parsed.summary, parsed.log);
  EXPECT_EQ(bytes, again);  // serialize ∘ parse == identity on bytes

  // And the parse really recovered the values, not just stable bytes.
  EXPECT_EQ(parsed.summary.shard_index, 3u);
  EXPECT_EQ(parsed.summary.seed, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(parsed.summary.payload_bytes_delivered, 123456789u);
  EXPECT_EQ(parsed.summary.events_processed, 777777u);
  EXPECT_EQ(parsed.summary.teardown.half_closed, 3u);
  EXPECT_TRUE(parsed.summary.teardown.accounting_balanced);
  ASSERT_EQ(parsed.summary.blocking_history.size(), 2u);
  EXPECT_EQ(parsed.summary.blocking_history[0].port, 8388);
  EXPECT_FALSE(parsed.summary.blocking_history[1].port.has_value());
  ASSERT_EQ(parsed.log.size(), 2u);
  EXPECT_EQ(parsed.log.records()[0].type, probesim::ProbeType::kR3);
  EXPECT_EQ(parsed.log.records()[0].replay_delay, net::hours(570));
  EXPECT_EQ(parsed.log.records()[1].reaction, probesim::Reaction::kTimeout);
}

TEST(Checkpoint, FileRoundTripIsByteIdentical) {
  const std::string path_a = temp_path("roundtrip_a.ckpt");
  const std::string path_b = temp_path("roundtrip_b.ckpt");
  const gfw::CheckpointHeader header = make_header();
  {
    gfw::CheckpointWriter writer(path_a, header, /*append=*/false);
    writer.append_shard(make_summary(), make_log());
    gfw::ShardSummary other = make_summary();
    other.shard_index = 0;
    other.seed = 42;
    writer.append_shard(other, make_log());
  }

  const gfw::Checkpoint loaded = gfw::load_checkpoint(path_a);
  EXPECT_EQ(loaded.header.version, gfw::kCheckpointVersion);
  EXPECT_EQ(loaded.header.base_seed, header.base_seed);
  EXPECT_EQ(loaded.torn_tail_bytes, 0u);
  ASSERT_EQ(loaded.shards.size(), 2u);

  {
    gfw::CheckpointWriter writer(path_b, loaded.header, /*append=*/false);
    // Shard frames were appended in (3, 0) order; re-emit in that order.
    writer.append_shard(loaded.shards.at(3).summary, loaded.shards.at(3).log);
    writer.append_shard(loaded.shards.at(0).summary, loaded.shards.at(0).log);
  }
  EXPECT_EQ(read_file(path_a), read_file(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Checkpoint, VersionMismatchIsRejected) {
  const std::string path = temp_path("version.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_summary(), make_log());
  }
  Bytes data = read_file(path);
  data[8] = 0x7F;  // version field (little-endian u32 at offset 8)
  write_file(path, data);
  EXPECT_THROW(gfw::load_checkpoint(path), gfw::CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, BadMagicIsRejected) {
  const std::string path = temp_path("magic.ckpt");
  write_file(path, to_bytes("definitely not a checkpoint file at all"));
  EXPECT_THROW(gfw::load_checkpoint(path), gfw::CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornTailFrameIsIgnored) {
  // The process died mid-append: everything before the torn frame loads,
  // and the torn bytes are reported so a resume can truncate them.
  const std::string path = temp_path("torn.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_summary(), make_log());
  }
  Bytes data = read_file(path);
  const Bytes frame_start = {1, 0, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0xAB, 0xCD};
  append(data, frame_start);  // claims a 64 KiB payload, delivers 2 bytes
  write_file(path, data);

  const gfw::Checkpoint loaded = gfw::load_checkpoint(path);
  EXPECT_EQ(loaded.shards.size(), 1u);
  EXPECT_EQ(loaded.torn_tail_bytes, frame_start.size());

  // Appending over the torn tail truncates it first, leaving a journal
  // that loads clean with both shards.
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/true);
    gfw::ShardSummary other = make_summary();
    other.shard_index = 1;
    writer.append_shard(other, make_log());
  }
  const gfw::Checkpoint repaired = gfw::load_checkpoint(path);
  EXPECT_EQ(repaired.shards.size(), 2u);
  EXPECT_EQ(repaired.torn_tail_bytes, 0u);
  std::remove(path.c_str());
}

// --- Fleet shards, resource verdicts and the fingerprint ---------------

// A fully-populated resource verdict: every counter nonzero and two shed
// records (one with a region, one without) so field drops move the bytes.
gfw::ShardResources make_resources() {
  gfw::ShardResources r;
  r.probes_shed = 7;
  r.probes_deferred = 11;
  r.queue_overflow_drops = 23;
  r.peak_metered_bytes = 1 << 20;
  r.acquisitions = 4242;
  for (std::size_t kind = 0; kind < net::kResourceKindCount; ++kind) {
    r.peak_units[kind] = 100 + kind;
  }
  gfw::ShedRecord beijing;
  beijing.server_id = 3;
  beijing.region = "beijing";
  beijing.count = 5;
  r.sheds.push_back(beijing);
  gfw::ShedRecord bare;
  bare.server_id = 0;
  bare.count = 2;
  r.sheds.push_back(bare);
  return r;
}

// The synthetic shard above, carrying every category of fleet data: probe
// records with nonzero server ids, region-tagged block entries, and
// per-server stats rows — plus a resource verdict, so it fills every
// field the shard frame carries.
gfw::ShardSummary make_fleet_summary() {
  gfw::ShardSummary s = make_summary();
  s.resources = make_resources();
  s.blocking_history[0].region = "beijing";
  s.blocking_history[1].region = "unicom";
  gfw::ServerStats a;
  a.server_id = 0;
  a.endpoint = {net::Ipv4(203, 0, 113, 10), 8388};
  a.region = "beijing";
  a.impl = "OutlineVPN v1.0.7";
  a.cipher = "chacha20-ietf-poly1305";
  a.connections_launched = 55;
  a.payload_bytes = 987654321;
  a.probes = 2;
  a.blocks = 1;
  gfw::ServerStats b;
  b.server_id = 3;
  b.endpoint = {net::Ipv4(203, 0, 114, 2), 8389};
  b.region = "unicom";
  b.impl = "Shadowsocks-python";
  b.cipher = "aes-256-cfb";
  b.connections_launched = 46;
  b.payload_bytes = 11223344;
  b.probes = 0;
  b.blocks = 0;
  s.servers = {a, b};
  return s;
}

gfw::ProbeLog make_fleet_log() {
  const gfw::ProbeLog base = make_log();
  gfw::ProbeLog log;
  for (gfw::ProbeRecord record : base.records()) {
    record.server_id = log.size() == 0 ? 0 : 3;
    log.add(record);
  }
  return log;
}

TEST(Checkpoint, FleetFrameRoundTripsByteIdentically) {
  const gfw::ShardSummary summary = make_fleet_summary();
  const gfw::ProbeLog log = make_fleet_log();
  // A single server is a fleet of one: both shards go through the one
  // shard codec, whatever shard_has_fleet_data says about them.
  EXPECT_TRUE(gfw::shard_has_fleet_data(summary, log));
  EXPECT_FALSE(gfw::shard_has_fleet_data(make_summary(), make_log()));
  EXPECT_EQ(gfw::serialize_shard_fleet(summary, log), gfw::serialize_shard(summary, log));

  const Bytes bytes = gfw::serialize_shard(summary, log);
  const gfw::ShardRun parsed = gfw::parse_shard(bytes);
  const Bytes again = gfw::serialize_shard(parsed.summary, parsed.log);
  EXPECT_EQ(bytes, again);  // serialize ∘ parse == identity on bytes

  ASSERT_EQ(parsed.log.size(), 2u);
  EXPECT_EQ(parsed.log.records()[0].server_id, 0u);
  EXPECT_EQ(parsed.log.records()[1].server_id, 3u);
  ASSERT_EQ(parsed.summary.blocking_history.size(), 2u);
  EXPECT_EQ(parsed.summary.blocking_history[0].region, "beijing");
  EXPECT_EQ(parsed.summary.blocking_history[1].region, "unicom");
  ASSERT_EQ(parsed.summary.servers.size(), 2u);
  EXPECT_EQ(parsed.summary.servers[0].cipher, "chacha20-ietf-poly1305");
  EXPECT_EQ(parsed.summary.servers[1].server_id, 3u);
  EXPECT_EQ(parsed.summary.servers[1].payload_bytes, 11223344u);

  const gfw::ShardResources& resources = parsed.summary.resources;
  EXPECT_EQ(resources.probes_shed, 7u);
  EXPECT_EQ(resources.probes_deferred, 11u);
  EXPECT_EQ(resources.queue_overflow_drops, 23u);
  EXPECT_EQ(resources.peak_metered_bytes, 1u << 20);
  EXPECT_EQ(resources.acquisitions, 4242u);
  EXPECT_EQ(resources.peak_units[net::kResourceKindCount - 1],
            100u + net::kResourceKindCount - 1);
  ASSERT_EQ(resources.sheds.size(), 2u);
  EXPECT_EQ(resources.sheds[0].region, "beijing");
  EXPECT_EQ(resources.sheds[0].count, 5u);
  EXPECT_EQ(resources.sheds[1].server_id, 0u);
  EXPECT_TRUE(resources.sheds[1].region.empty());
}

TEST(Checkpoint, FleetShardsJournalAndRestoreThroughTheFile) {
  const std::string path = temp_path("fleet.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_fleet_summary(), make_fleet_log());
    gfw::ShardSummary legacy = make_summary();
    legacy.shard_index = 0;
    writer.append_shard(legacy, make_log());
  }
  const gfw::Checkpoint loaded = gfw::load_checkpoint(path);
  ASSERT_EQ(loaded.shards.size(), 2u);
  const gfw::ShardRun& fleet = loaded.shards.at(3);
  ASSERT_EQ(fleet.summary.servers.size(), 2u);
  EXPECT_EQ(fleet.summary.servers[1].region, "unicom");
  EXPECT_EQ(fleet.log.records()[1].server_id, 3u);
  EXPECT_EQ(fleet.summary.blocking_history[0].region, "beijing");
  const gfw::ShardRun& legacy = loaded.shards.at(0);
  EXPECT_TRUE(legacy.summary.servers.empty());
  EXPECT_EQ(legacy.log.records()[1].server_id, 0u);
  std::remove(path.c_str());
}

gfw::Scenario small_fleet_scenario() {
  gfw::Scenario scenario;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.duration = net::hours(1);
  scenario.connection_interval = net::seconds(120);
  scenario.classifier_base_rate = 0.25;
  scenario.base_seed = 0xF1EE7CDE;
  gfw::ServerSpec first;
  first.server.impl = probesim::ServerSetup::Impl::kOutline107;
  first.region = "beijing";
  scenario.fleet.push_back(first);
  gfw::ServerSpec second = first;
  second.server.impl = probesim::ServerSetup::Impl::kLibevNew;
  second.server.cipher = "aes-256-gcm";
  second.region = "unicom";
  scenario.fleet.push_back(second);
  return scenario;
}

TEST(Checkpoint, FingerprintCoversFleetShape) {
  const gfw::Scenario fleet = small_fleet_scenario();
  // Deterministic, and sensitive to every fleet dimension: declaring a
  // fleet at all, adding a server, and changing a server's cipher,
  // region, port, or brdgrd flag each move the fingerprint.
  EXPECT_EQ(gfw::scenario_fingerprint(fleet),
            gfw::scenario_fingerprint(small_fleet_scenario()));

  gfw::Scenario legacy = fleet;
  legacy.fleet.clear();
  EXPECT_NE(gfw::scenario_fingerprint(fleet), gfw::scenario_fingerprint(legacy));
  gfw::Scenario one_entry = legacy;
  one_entry.fleet.push_back(one_entry.single_server_spec());
  EXPECT_NE(gfw::scenario_fingerprint(legacy),
            gfw::scenario_fingerprint(one_entry));

  gfw::Scenario grown = fleet;
  grown.fleet.push_back(grown.fleet[0]);
  EXPECT_NE(gfw::scenario_fingerprint(fleet), gfw::scenario_fingerprint(grown));
  gfw::Scenario cipher = fleet;
  cipher.fleet[0].server.cipher = "aes-256-cfb";
  EXPECT_NE(gfw::scenario_fingerprint(fleet), gfw::scenario_fingerprint(cipher));
  gfw::Scenario region = fleet;
  region.fleet[1].region = "shanghai";
  EXPECT_NE(gfw::scenario_fingerprint(fleet), gfw::scenario_fingerprint(region));
  gfw::Scenario port = fleet;
  port.fleet[1].port = 8390;
  EXPECT_NE(gfw::scenario_fingerprint(fleet), gfw::scenario_fingerprint(port));
  gfw::Scenario shielded = fleet;
  shielded.fleet[0].use_brdgrd = true;
  EXPECT_NE(gfw::scenario_fingerprint(fleet),
            gfw::scenario_fingerprint(shielded));
}

TEST(Checkpoint, ResumeRefusesAChangedFleet) {
  const std::string path = temp_path("fleet_resume.ckpt");
  const gfw::Scenario scenario = small_fleet_scenario();
  gfw::ShardedRunnerOptions options(/*shards=*/2, /*threads=*/1);
  options.checkpoint_path = path;
  {
    gfw::ShardedRunner runner(options);
    const gfw::CampaignResult result = runner.run(scenario);
    ASSERT_EQ(result.shards.size(), 2u);
  }
  options.resume = true;
  // Same legacy fields, different fleet: the journal must not be merged
  // into the reshaped campaign.
  gfw::Scenario changed = scenario;
  changed.fleet[1].region = "shanghai";
  EXPECT_THROW(gfw::ShardedRunner(options).run(changed), gfw::CheckpointError);
  // The unchanged fleet resumes cleanly, entirely from the journal.
  const gfw::CampaignResult resumed = gfw::ShardedRunner(options).run(scenario);
  EXPECT_EQ(resumed.shards.size(), 2u);
  ASSERT_EQ(resumed.shards[0].servers.size(), 2u);
  EXPECT_EQ(resumed.shards[0].servers[1].region, "unicom");
  std::remove(path.c_str());
}

// The fleet scenario with every optional override of fleet[1] set and
// every container holding an element, so that walking its leaves reaches
// every row of every row table.
gfw::Scenario configured_scenario() {
  gfw::Scenario scenario = small_fleet_scenario();
  const net::LinkOutage outage{net::minutes(10), net::minutes(5)};
  scenario.traffic.sites = {{"example.org", true, 1.0}};
  scenario.faults.outages = {outage};
  net::FaultProfile faults;
  faults.loss = 0.01;
  faults.outages = {outage};
  scenario.fleet[1].faults = faults;
  scenario.fleet[1].traffic = client::TrafficSpec::random_exp1();
  scenario.fleet[1].client = client::ClientConfig{};
  scenario.gfw.blocking.region_policies["unicom"] = gfw::RegionPolicy{};
  return scenario;
}

template <typename S, typename R>
using MemberType = std::remove_cvref_t<decltype(std::declval<S&>().*R{}.member)>;

template <typename T>
std::string row_id(const char* row) {
  return std::string(typeid(T).name()) + "::" + row;
}

// Every row of every table a Scenario reaches, found by type alone.
template <typename T>
void collect_rows(std::set<std::string>& out) {
  if constexpr (gfw::HasRows<T>) {
    gfw::for_each_row<T>([&](const auto& row) {
      out.insert(row_id<T>(row.name));
      collect_rows<MemberType<T, std::remove_cvref_t<decltype(row)>>>(out);
    });
  } else if constexpr (gfw::kIs<T, std::optional> || gfw::kIs<T, std::vector> ||
                       gfw::kIsArray<T>) {
    collect_rows<typename T::value_type>(out);
  } else if constexpr (gfw::kIs<T, std::map>) {
    collect_rows<typename T::mapped_type>(out);
  }
}

// Changes one leaf value so that its fingerprint rule must see it.
template <typename T>
void perturb_leaf(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
  } else if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(v + 1);
  } else if constexpr (std::is_same_v<T, net::Duration>) {
    v += net::Duration(1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += "x";
  } else if constexpr (std::is_same_v<T, net::Ipv4>) {
    v.value += 1;
  } else if constexpr (std::is_same_v<T, const proxy::CipherSpec*>) {
    const proxy::CipherSpec* aes = proxy::find_cipher("aes-256-gcm");
    v = v == aes ? proxy::find_cipher("chacha20-ietf-poly1305") : aes;
  } else if constexpr (gfw::kIs<T, std::function>) {
    if (v) {
      v = nullptr;
    } else {
      v = [](auto...) { return typename T::result_type{}; };
    }
  } else {
    static_assert(std::is_same_v<T, gfw::Scenario::DebugFailShard>, "no perturbation rule");
    v.enabled = true;
    v.shard = 1;
    v.stall = true;
    v.after = net::minutes(5);
    v.fail_attempts = 1;
    v.die = true;
  }
}

// Walks the leaves a Scenario's row tables reach, in table order, and
// perturbs leaf number `target`. Optionals, vectors and maps are leaves
// too (presence or size), and the walk also enters their contents.
struct Perturbation {
  explicit Perturbation(std::size_t leaf) : target(leaf) {}
  std::size_t target;
  std::size_t seen = 0;
  bool done = false;
  std::string path;    // the perturbed leaf
  bool mixed = true;   // false: the leaf sits under a skip row
  std::set<std::string> rows_reached;

  bool hit(const std::string& at, bool under_mixed) {
    if (done || seen++ != target) return false;
    done = true;
    path = at;
    mixed = under_mixed;
    return true;
  }

  template <typename T>
  void visit(T& v, const std::string& at, bool under_mixed) {
    if (done) return;
    if constexpr (gfw::HasRows<T>) {
      gfw::for_each_row<T>([&](const auto& row) {
        rows_reached.insert(row_id<T>(row.name));
        visit(v.*row.member, at + "." + row.name, under_mixed && row.mixed);
      });
    } else if constexpr (gfw::kIs<T, std::optional>) {
      if (hit(at + ".has_value", under_mixed)) {
        if (v) v.reset(); else v.emplace();
      } else if (v) {
        visit(*v, at, under_mixed);
      }
    } else if constexpr (gfw::kIs<T, std::vector> || gfw::kIs<T, std::map>) {
      if (hit(at + ".size", under_mixed)) {
        if constexpr (gfw::kIs<T, std::vector>) {
          v.emplace_back();
        } else {
          v.try_emplace("perturbed");
        }
        return;
      }
      std::size_t i = 0;
      for (auto& element : v) {
        if constexpr (gfw::kIs<T, std::map>) {
          visit(element.second, at + "[" + element.first + "]", under_mixed);
        } else {
          visit(element, at + "[" + std::to_string(i++) + "]", under_mixed);
        }
      }
    } else if constexpr (gfw::kIsArray<T>) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        visit(v[i], at + "[" + std::to_string(i) + "]", under_mixed);
      }
    } else if (hit(at, under_mixed)) {
      perturb_leaf(v);
    }
  }
};

TEST(Checkpoint, FingerprintCoversEveryConfigStruct) {
  // Perturb every leaf under every row, one at a time: a journal written
  // before a change to a mixed leaf must not be resumed after it, and a
  // change under a skip row must not refuse a resume.
  const std::uint64_t base = gfw::scenario_fingerprint(configured_scenario());
  EXPECT_EQ(base, gfw::scenario_fingerprint(configured_scenario()));
  std::set<std::string> rows_reached;
  std::vector<std::string> skipped;
  for (std::size_t target = 0;; ++target) {
    gfw::Scenario changed = configured_scenario();
    Perturbation p(target);
    p.visit(changed, "scenario", true);
    rows_reached.insert(p.rows_reached.begin(), p.rows_reached.end());
    if (!p.done) break;
    if (p.mixed) {
      EXPECT_NE(gfw::scenario_fingerprint(changed), base) << p.path;
    } else {
      EXPECT_EQ(gfw::scenario_fingerprint(changed), base) << p.path;
      skipped.push_back(p.path);
    }
  }
  std::set<std::string> every_row;
  collect_rows<gfw::Scenario>(every_row);
  EXPECT_EQ(rows_reached, every_row);
  EXPECT_EQ(skipped, (std::vector<std::string>{"scenario.gfw.classifier.base_rate",
                                               "scenario.debug_fail_shard"}));
}

// gfw.classifier.base_rate is the World's copy of classifier_base_rate (a
// skip row above). A Scenario that sets it is refused once, naming the
// field to set instead, before any shard runs or any journal is written.
template <typename Run>
std::string campaign_error(Run run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(WorldOwnedFields, ClassifierBaseRateIsRefusedBeforeAnyShardRuns) {
  gfw::Scenario scenario = small_fleet_scenario();
  scenario.gfw.classifier.base_rate = 0.5;
  const std::string path = temp_path("world_owned.ckpt");
  std::remove(path.c_str());
  gfw::ShardedRunnerOptions options(/*shards=*/2, /*threads=*/1);
  options.checkpoint_path = path;
  gfw::ShardedRunner runner(options);
  int shards_started = 0;
  runner.set_before_run([&](gfw::World&, std::uint32_t) { ++shards_started; });
  const std::string sharded = campaign_error([&] { runner.run(scenario); });
  EXPECT_NE(sharded.find("classifier_base_rate"), std::string::npos);
  EXPECT_EQ(shards_started, 0);
  EXPECT_FALSE(gfw::checkpoint_exists(path));

  gfw::DistRunnerOptions dist;
  dist.shards = 2;
  dist.workers = 1;
  const std::string forked = campaign_error([&] { gfw::DistRunner(dist).run(scenario); });
  EXPECT_EQ(forked, sharded);
  EXPECT_EQ(campaign_error([&] { gfw::World(scenario, scenario.base_seed); }), sharded);
}

TEST(Checkpoint, ResumeRefusesAChangedTrafficSpec) {
  const std::string path = temp_path("traffic_resume.ckpt");
  gfw::ShardedRunnerOptions options(/*shards=*/2, /*threads=*/1);
  options.checkpoint_path = path;
  {
    gfw::ShardedRunner runner(options);
    ASSERT_EQ(runner.run(small_fleet_scenario()).shards.size(), 2u);
  }
  options.resume = true;
  gfw::Scenario changed = small_fleet_scenario();
  changed.traffic = client::TrafficSpec::random_exp1();
  EXPECT_THROW(gfw::ShardedRunner(options).run(changed), gfw::CheckpointError);
  std::remove(path.c_str());
}

// --- Framing: CRC, failure verdicts, hostile input ---------------------

// A fully-populated supervision verdict: every field non-default so the
// golden digest pins the whole failure codec.
gfw::ShardFailure make_failure() {
  gfw::ShardFailure f;
  f.shard_index = 6;
  f.seed = 0x0123456789ABCDEFull;
  f.phase = gfw::ShardPhase::kRun;
  f.kind = gfw::FailureKind::kCrash;
  f.what = "worker killed by signal 9 (SIGKILL)";
  f.attempts = 2;
  f.quarantined = true;
  f.nondeterministic = false;
  f.teardown.live_established = 1;
  f.teardown.pending_timers = 4;
  f.teardown.accounting_balanced = false;
  return f;
}

TEST(Checkpoint, FailureFrameRoundTripsByteIdentically) {
  const gfw::ShardFailure failure = make_failure();
  const Bytes bytes = gfw::serialize_failure(failure);
  const gfw::ShardFailure parsed = gfw::parse_failure(bytes);
  EXPECT_EQ(gfw::serialize_failure(parsed), bytes);

  EXPECT_EQ(parsed.shard_index, 6u);
  EXPECT_EQ(parsed.seed, 0x0123456789ABCDEFull);
  EXPECT_EQ(parsed.phase, gfw::ShardPhase::kRun);
  EXPECT_EQ(parsed.kind, gfw::FailureKind::kCrash);
  EXPECT_EQ(parsed.what, failure.what);
  EXPECT_EQ(parsed.attempts, 2);
  EXPECT_TRUE(parsed.quarantined);
  EXPECT_FALSE(parsed.nondeterministic);
  EXPECT_EQ(parsed.teardown.pending_timers, 4u);
  EXPECT_FALSE(parsed.teardown.accounting_balanced);
}

TEST(Checkpoint, GoldenDigestsPinTheVersion3Codecs) {
  // SHA-1 of the synthetic shard frame (server rows, regions, server ids
  // and a resource verdict) and failure frame, captured when format
  // version 3 was frozen; the failure codec has not changed since
  // version 2. If either fails, the wire format changed: bump
  // kCheckpointVersion and re-pin instead of silently breaking journals
  // written by older workers.
  const Bytes shard = gfw::serialize_shard(make_fleet_summary(), make_fleet_log());
  const auto shard_digest = crypto::Sha1::hash(shard);
  EXPECT_EQ(hex_encode(ByteSpan(shard_digest.data(), shard_digest.size())),
            "cdc34b77a18055bf0224c25b1b6a251869f0938a");
  const Bytes failure = gfw::serialize_failure(make_failure());
  const auto failure_digest = crypto::Sha1::hash(failure);
  EXPECT_EQ(hex_encode(ByteSpan(failure_digest.data(), failure_digest.size())),
            "5b39c17e93e63a00cd39edfd58f078ae96eb8330");
}

TEST(Checkpoint, FailureVerdictsJournalAndRestoreThroughTheFile) {
  // Supervision verdicts ride the same journal as results (kind-3
  // frames), so a respawned worker — and the coordinator's merge — see
  // quarantines from before the crash.
  const std::string path = temp_path("verdicts.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_failure(make_failure());
    writer.append_shard(make_summary(), make_log());
    gfw::ShardFailure recovered = make_failure();
    recovered.shard_index = 3;
    recovered.kind = gfw::FailureKind::kException;
    recovered.what = "debug_fail_shard";
    recovered.quarantined = false;
    recovered.nondeterministic = true;
    writer.append_failure(recovered);
  }
  const gfw::Checkpoint loaded = gfw::load_checkpoint(path);
  EXPECT_EQ(loaded.shards.size(), 1u);
  ASSERT_EQ(loaded.failures.size(), 2u);
  EXPECT_EQ(loaded.failures[0].shard_index, 6u);
  EXPECT_TRUE(loaded.failures[0].quarantined);
  EXPECT_EQ(loaded.failures[1].shard_index, 3u);
  EXPECT_EQ(loaded.failures[1].kind, gfw::FailureKind::kException);
  EXPECT_TRUE(loaded.failures[1].nondeterministic);
  std::remove(path.c_str());
}

TEST(Checkpoint, InteriorCorruptionIsACheckpointErrorNotSilentData) {
  // A bit flip in a frame payload must trip the CRC: returning silently
  // corrupted shard data into a bit-identical merge would be far worse
  // than failing the load.
  const std::string path = temp_path("crc.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_summary(), make_log());
    writer.append_failure(make_failure());
  }
  const Bytes pristine = read_file(path);
  Bytes data = pristine;
  data[48] ^= 0x01;  // first payload byte of the first frame
  write_file(path, data);
  try {
    gfw::load_checkpoint(path);
    FAIL() << "corrupt payload loaded without error";
  } catch (const gfw::CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("CRC"), std::string::npos);
  }

  // An implausible frame length is rejected up front, before any
  // allocation in its image.
  data = pristine;
  data[32 + 4 + 5] = 0x7F;  // frame 1's u64 payload size, byte 5: ~87 TiB
  write_file(path, data);
  try {
    gfw::load_checkpoint(path);
    FAIL() << "implausible frame length loaded without error";
  } catch (const gfw::CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("implausible"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, BitFlipCorpusNeverEscapesTheStructuredError) {
  // Hostile-input sweep: flip every bit of a journal holding all three
  // frame kinds (a single-server shard, a fleet shard with a resource
  // verdict, a kResource failure verdict and a worker-IO verdict), then
  // load. Every variant must either load (flips that only shorten the
  // tail are legal) or throw CheckpointError — never any other
  // exception, UB, or a crash. This is the contract that lets the
  // DistRunner coordinator feed journals found on disk straight into
  // the loader.
  const std::string path = temp_path("bitflip.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    gfw::ShardSummary single = make_summary();
    single.shard_index = 0;
    writer.append_shard(single, make_log());
    writer.append_shard(make_fleet_summary(), make_fleet_log());
    gfw::ShardFailure breach = make_failure();
    breach.kind = gfw::FailureKind::kResource;
    writer.append_failure(breach);
    writer.append_worker_io(gfw::WorkerIoStats{0, 1, 2, 3});
  }
  const Bytes pristine = read_file(path);
  ASSERT_GT(pristine.size(), 32u);

  std::size_t loads_ok = 0, structured_errors = 0;
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = pristine;
      mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
      write_file(path, mutated);
      try {
        (void)gfw::load_checkpoint(path);
        ++loads_ok;
      } catch (const gfw::CheckpointError&) {
        ++structured_errors;
      }
      // Anything else escaping load_checkpoint aborts the test.
    }
  }
  // Both outcomes must actually occur: flips that only truncate the tail
  // load, flips in CRCs or the header throw.
  EXPECT_GT(loads_ok, 0u);
  EXPECT_GT(structured_errors, 0u);

  // Truncation sweep: every prefix of the file loads or throws, too.
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    write_file(path, ByteSpan(pristine.data(), len));
    try {
      (void)gfw::load_checkpoint(path);
    } catch (const gfw::CheckpointError&) {
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, Version1FilesAreRejectedWithAClearMessage) {
  // Version 2 added frame CRCs; a v1 file's frames would all fail the
  // CRC check anyway, so the loader refuses up front with a message
  // naming both versions instead of reporting phantom corruption.
  const std::string path = temp_path("v1.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_summary(), make_log());
  }
  Bytes data = read_file(path);
  data[8] = 1;  // version field (little-endian u32 at offset 8)
  write_file(path, data);
  try {
    gfw::load_checkpoint(path);
    FAIL() << "version-1 file loaded as version 3";
  } catch (const gfw::CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, Version2FilesAreRejectedNamingBothVersions) {
  // Version 3 folded the kind-2 fleet frame and the kind-4 resource
  // frame into the one shard frame; a version-2 journal is refused up
  // front, and the message says which version it found and which one
  // this reader wants.
  const std::string path = temp_path("v2.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_summary(), make_log());
  }
  Bytes data = read_file(path);
  data[8] = 2;  // version field (little-endian u32 at offset 8)
  write_file(path, data);
  try {
    gfw::load_checkpoint(path);
    FAIL() << "version-2 file loaded as version 3";
  } catch (const gfw::CheckpointError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 3"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, UnknownFrameKindIsACheckpointError) {
  // The loader accepts shard, failure and worker-IO frames only. Any
  // other kind, the retired fleet (2) and resource (4) kinds included,
  // is corruption rather than something to skip.
  const std::string path = temp_path("kind.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_summary(), make_log());
  }
  const Bytes pristine = read_file(path);
  for (const std::uint8_t kind : {0, 2, 4, 6, 0xFF}) {
    Bytes data = pristine;
    data[32] = kind;  // low byte of the first frame's u32 kind
    write_file(path, data);
    try {
      gfw::load_checkpoint(path);
      FAIL() << "frame kind " << int{kind} << " loaded without error";
    } catch (const gfw::CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find("unknown frame kind"), std::string::npos)
          << error.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, OutOfRangeShardIndexIsCorruption) {
  // Every shard and failure index the loader returns is below the
  // header's shard count, so no caller has to filter them.
  const std::string path = temp_path("range.ckpt");
  gfw::CheckpointHeader header = make_header();
  header.shard_count = 3;
  for (const bool failure : {false, true}) {
    {
      gfw::CheckpointWriter writer(path, header, /*append=*/false);
      gfw::ShardSummary in_range = make_summary();
      in_range.shard_index = 2;
      writer.append_shard(in_range, make_log());
      if (failure) {
        writer.append_failure(make_failure());  // shard 6
      } else {
        writer.append_shard(make_summary(), make_log());  // shard 3
      }
    }
    try {
      gfw::load_checkpoint(path);
      FAIL() << (failure ? "failure" : "shard") << " index past the shard count loaded";
    } catch (const gfw::CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find("3-shard campaign"), std::string::npos)
          << error.what();
    }
  }
  std::remove(path.c_str());
}

// --- Resource-governance verdicts (kResource failures, shard resources,
// worker IO) ------------------------------------------------------------

TEST(Checkpoint, ResourceFailureKindRoundTripsThroughTheVerdictFrame) {
  // A budget breach is journaled as an ordinary kind-3 verdict with the
  // new kResource kind — old journals' kinds are untouched, so the
  // failure golden digest above still pins the codec.
  gfw::ShardFailure failure = make_failure();
  failure.kind = gfw::FailureKind::kResource;
  failure.what = "resource budget exhausted: payload bytes";
  const Bytes bytes = gfw::serialize_failure(failure);
  const gfw::ShardFailure parsed = gfw::parse_failure(bytes);
  EXPECT_EQ(gfw::serialize_failure(parsed), bytes);
  EXPECT_EQ(parsed.kind, gfw::FailureKind::kResource);
  EXPECT_EQ(parsed.what, failure.what);

  const std::string path = temp_path("resource_failure.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_failure(failure);
  }
  const gfw::Checkpoint loaded = gfw::load_checkpoint(path);
  ASSERT_EQ(loaded.failures.size(), 1u);
  EXPECT_EQ(loaded.failures[0].kind, gfw::FailureKind::kResource);
  std::remove(path.c_str());
}

TEST(Checkpoint, UnknownFailureKindIsAStructuredRejection) {
  // A journal from a future writer with a failure kind this reader does
  // not know must fail loudly (the verdict drives retry/quarantine
  // decisions — guessing would be worse than refusing).
  Bytes bytes = gfw::serialize_failure(make_failure());
  // Layout: u32 shard_index, u64 seed, u8 phase, u8 kind.
  const std::size_t kind_offset = 4 + 8 + 1;
  bytes[kind_offset] =
      static_cast<std::uint8_t>(gfw::FailureKind::kResource) + 1;
  try {
    gfw::parse_failure(bytes);
    FAIL() << "unknown failure kind parsed without error";
  } catch (const gfw::CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown kind"),
              std::string::npos);
  }
}

TEST(Checkpoint, UnknownProbeEnumByteIsAStructuredRejectionNamingTheRow) {
  // Every journaled enum is range-checked, not only the failure frame's:
  // a probe record with a type or reaction byte past the last enumerator
  // is corruption, and the error names the row.
  const gfw::ShardSummary summary = make_summary();
  const Bytes bytes = gfw::serialize_shard(summary, make_log());
  // The first byte that differs from the same shard with an empty log is
  // the low byte of the u64 probe count; the first record follows it.
  const Bytes empty = gfw::serialize_shard(summary, gfw::ProbeLog{});
  const std::size_t count_at = static_cast<std::size_t>(
      std::mismatch(bytes.begin(), bytes.end(), empty.begin()).first - bytes.begin());
  // Record layout: i64 sent_at, u8 type, ..., with the u8 reaction at 42.
  const std::size_t record_at = count_at + 8;
  const struct {
    std::size_t offset;
    std::uint8_t byte;
    const char* message;
  } cases[] = {
      {record_at + 8, static_cast<std::uint8_t>(probesim::ProbeType::kNR2) + 1,
       "unknown type byte 7"},
      {record_at + 42, static_cast<std::uint8_t>(probesim::Reaction::kData) + 1,
       "unknown reaction byte 4"},
  };
  for (const auto& c : cases) {
    Bytes corrupt = bytes;
    corrupt[c.offset] = c.byte;
    try {
      gfw::parse_shard(corrupt);
      FAIL() << c.message << " parsed without error";
    } catch (const gfw::CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find(c.message), std::string::npos)
          << error.what();
    }
  }
}

TEST(Checkpoint, APeakCountFromAnotherBuildStillDecodes) {
  // The resource peaks carry their own count, so a frame from a build
  // with more metered kinds drops the extra peaks, and one from a build
  // with fewer leaves the missing peaks at 0; the sheds after them still
  // decode.
  const gfw::ShardSummary summary = make_fleet_summary();
  const Bytes bytes = gfw::serialize_shard(summary, make_fleet_log());
  constexpr std::size_t kKinds = net::kResourceKindCount;
  // The frame ends with u32 peak count, the u64 peaks, then the sheds:
  // u32 count, {u16, "beijing", u64} and {u16, "", u64}.
  constexpr std::size_t kShedsSize = 4 + (2 + 4 + 7 + 8) + (2 + 4 + 8);
  const std::size_t peaks_at = bytes.size() - kShedsSize - 8 * kKinds;
  const std::size_t count_at = peaks_at - 4;
  ASSERT_EQ(load_le32(bytes.data() + count_at), kKinds);

  const auto with_count = [&](std::uint32_t count) {
    Bytes spliced = bytes;
    store_le32(spliced.data() + count_at, count);
    const auto peaks_end = spliced.begin() + static_cast<std::ptrdiff_t>(peaks_at + 8 * kKinds);
    if (count > kKinds) {
      spliced.insert(peaks_end, 8, 0xEE);
    } else {
      spliced.erase(peaks_end - 8, peaks_end);
    }
    return gfw::parse_shard(spliced).summary.resources;
  };

  const gfw::ShardResources more = with_count(kKinds + 1);
  EXPECT_EQ(more.peak_units, summary.resources.peak_units);
  const gfw::ShardResources fewer = with_count(kKinds - 1);
  for (std::size_t kind = 0; kind + 1 < kKinds; ++kind) {
    EXPECT_EQ(fewer.peak_units[kind], summary.resources.peak_units[kind]) << kind;
  }
  EXPECT_EQ(fewer.peak_units[kKinds - 1], 0u);
  for (const gfw::ShardResources& r : {more, fewer}) {
    ASSERT_EQ(r.sheds.size(), 2u);
    EXPECT_EQ(r.sheds[0].region, "beijing");
    EXPECT_EQ(r.sheds[0].count, 5u);
    EXPECT_EQ(r.sheds[1].count, 2u);
  }
}

TEST(Checkpoint, WorkerIoFrameRoundTripsByteIdentically) {
  gfw::WorkerIoStats io;
  io.worker_id = 2;
  io.heartbeats_dropped = 3;
  io.heartbeat_retries = 19;
  io.journal_retries = 1;
  EXPECT_TRUE(io.any());
  EXPECT_FALSE(gfw::WorkerIoStats{}.any());

  const Bytes bytes = gfw::serialize_worker_io(io);
  const gfw::WorkerIoStats parsed = gfw::parse_worker_io(bytes);
  EXPECT_EQ(gfw::serialize_worker_io(parsed), bytes);
  EXPECT_EQ(parsed.worker_id, 2u);
  EXPECT_EQ(parsed.heartbeats_dropped, 3u);
  EXPECT_EQ(parsed.heartbeat_retries, 19u);
  EXPECT_EQ(parsed.journal_retries, 1u);
  EXPECT_EQ(gfw::describe(parsed),
            "3 heartbeat(s) dropped, 19 heartbeat write(s) retried, "
            "1 journal open(s) retried");
}

TEST(Checkpoint, ResourceVerdictsJournalAndReattachThroughTheFile) {
  // A shard's resource verdict rides inside its own shard frame, so load
  // hands each shard back with exactly the verdict it was written with —
  // shed counts for the governed shard, all zeros for the quiet one.
  const std::string path = temp_path("resources.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    gfw::ShardSummary shed = make_summary();
    shed.resources = make_resources();
    writer.append_shard(shed, make_log());
    gfw::ShardSummary quiet = make_summary();
    quiet.shard_index = 0;
    writer.append_shard(quiet, make_log());
    writer.append_worker_io(gfw::WorkerIoStats{1, 0, 4, 1});
  }
  const gfw::Checkpoint loaded = gfw::load_checkpoint(path);
  ASSERT_EQ(loaded.shards.size(), 2u);
  const gfw::ShardResources& attached = loaded.shards.at(3).summary.resources;
  EXPECT_TRUE(attached.any());
  EXPECT_EQ(attached.probes_shed, 7u);
  ASSERT_EQ(attached.sheds.size(), 2u);
  EXPECT_EQ(attached.sheds[0].region, "beijing");
  EXPECT_FALSE(loaded.shards.at(0).summary.resources.any());
  ASSERT_EQ(loaded.worker_io.size(), 1u);
  EXPECT_EQ(loaded.worker_io[0].heartbeat_retries, 4u);
  std::remove(path.c_str());
}

TEST(Checkpoint, FingerprintCoversResourceBudgets) {
  // Arming the governor reshapes the campaign, so a resumed journal from
  // an unarmed run must not merge into a budgeted one (and vice versa).
  // Equal budgets hash equally.
  gfw::Scenario base = small_fleet_scenario();
  gfw::Scenario zeroed = base;
  zeroed.resources = gfw::Scenario::ResourceConfig{};
  EXPECT_EQ(gfw::scenario_fingerprint(base), gfw::scenario_fingerprint(zeroed));

  gfw::Scenario budgeted = base;
  budgeted.resources.limits.total_bytes = 1 << 20;
  EXPECT_NE(gfw::scenario_fingerprint(base),
            gfw::scenario_fingerprint(budgeted));
  gfw::Scenario capped = base;
  capped.resources.probe_queue_cap = 4;
  EXPECT_NE(gfw::scenario_fingerprint(base), gfw::scenario_fingerprint(capped));
  EXPECT_NE(gfw::scenario_fingerprint(budgeted),
            gfw::scenario_fingerprint(capped));
  gfw::Scenario fail_at = budgeted;
  fail_at.resources.limits.fail_at_acquisition = 1000;
  EXPECT_NE(gfw::scenario_fingerprint(budgeted),
            gfw::scenario_fingerprint(fail_at));
}

TEST(Checkpoint, AppendingAForeignCampaignIsRejected) {
  const std::string path = temp_path("foreign.ckpt");
  {
    gfw::CheckpointWriter writer(path, make_header(), /*append=*/false);
    writer.append_shard(make_summary(), make_log());
  }
  gfw::CheckpointHeader other = make_header();
  other.base_seed ^= 1;
  EXPECT_THROW(gfw::CheckpointWriter(path, other, /*append=*/true),
               gfw::CheckpointError);
  std::remove(path.c_str());
}

// ---- counter tables ---------------------------------------------------------

// Every row of `table` names a field of its own and a name of its own, so
// no counter is coded twice or skipped.
template <typename Table>
void expect_distinct_rows(const Table& table) {
  for (std::size_t i = 0; i < std::size(table); ++i) {
    for (std::size_t j = i + 1; j < std::size(table); ++j) {
      EXPECT_NE(table[i].field, table[j].field) << table[i].name;
      EXPECT_NE(std::string(table[i].name), table[j].name);
    }
  }
}

TEST(CounterTables, EveryRowIsDeclaredOnce) {
  EXPECT_EQ(std::size(gfw::kShardCounters), 15u);
  EXPECT_EQ(std::size(gfw::kResourceCounters), 5u);
  EXPECT_EQ(std::size(gfw::kServerCounters), 4u);
  EXPECT_EQ(std::size(gfw::kWorkerIoCounters), 3u);
  expect_distinct_rows(gfw::kShardCounters);
  expect_distinct_rows(gfw::kResourceCounters);
  expect_distinct_rows(gfw::kServerCounters);
  expect_distinct_rows(gfw::kWorkerIoCounters);
  for (const auto& row : gfw::kShardCounters) EXPECT_NE(row.read, nullptr) << row.name;
  for (const auto& row : gfw::kResourceCounters) EXPECT_NE(row.read, nullptr) << row.name;
}

TEST(CounterTables, EveryRowSurvivesTheShardAndWorkerIoCodecs) {
  // Distinct values across all four tables: a row that the codec drops,
  // or decodes into another row's field, shows up as a wrong value.
  std::uint64_t next = 0x1000;
  gfw::ShardSummary summary = make_fleet_summary();
  for (const auto& row : gfw::kShardCounters) summary.*row.field = next++;
  for (const auto& row : gfw::kResourceCounters) summary.resources.*row.field = next++;
  for (gfw::ServerStats& server : summary.servers) {
    for (const auto& row : gfw::kServerCounters) server.*row.field = next++;
  }
  gfw::WorkerIoStats io;
  io.worker_id = 9;
  for (const auto& row : gfw::kWorkerIoCounters) io.*row.field = next++;

  const gfw::ShardRun parsed =
      gfw::parse_shard(gfw::serialize_shard(summary, make_fleet_log()));
  for (const auto& row : gfw::kShardCounters) {
    EXPECT_EQ(parsed.summary.*row.field, summary.*row.field) << row.name;
  }
  for (const auto& row : gfw::kResourceCounters) {
    EXPECT_EQ(parsed.summary.resources.*row.field, summary.resources.*row.field)
        << row.name;
  }
  ASSERT_EQ(parsed.summary.servers.size(), summary.servers.size());
  for (std::size_t i = 0; i < summary.servers.size(); ++i) {
    for (const auto& row : gfw::kServerCounters) {
      EXPECT_EQ(parsed.summary.servers[i].*row.field, summary.servers[i].*row.field)
          << "server " << i << " " << row.name;
    }
  }
  const gfw::WorkerIoStats parsed_io = gfw::parse_worker_io(gfw::serialize_worker_io(io));
  EXPECT_EQ(parsed_io.worker_id, 9u);
  for (const auto& row : gfw::kWorkerIoCounters) {
    EXPECT_EQ(parsed_io.*row.field, io.*row.field) << row.name;
  }
}

TEST(CounterTables, TotalsSumEverySumRowAndTakeTheLargestPeak) {
  // Per-shard multipliers whose sum (57) and maximum (50) differ, so a
  // row merged by the wrong rule cannot pass.
  const std::uint64_t scale[3] = {3, 50, 4};
  gfw::CampaignResult result;
  for (std::uint32_t shard = 0; shard < 3; ++shard) {
    gfw::ShardSummary s = make_fleet_summary();
    s.shard_index = shard;
    std::uint64_t base = 1;
    for (const auto& row : gfw::kShardCounters) s.*row.field = base++ * scale[shard];
    for (const auto& row : gfw::kResourceCounters) {
      s.resources.*row.field = base++ * scale[shard];
    }
    result.shards.push_back(s);
  }
  const gfw::ShardSummary totals = result.totals();
  std::uint64_t base = 1;
  for (const auto& row : gfw::kShardCounters) {
    EXPECT_EQ(totals.*row.field, base++ * 57) << row.name;
  }
  for (const auto& row : gfw::kResourceCounters) {
    const bool peak = row.field == &gfw::ShardResources::peak_metered_bytes;
    EXPECT_EQ(totals.resources.*row.field, base++ * (peak ? 50 : 57)) << row.name;
  }
  // Identity fields, the teardown report and the vectors stay empty.
  EXPECT_EQ(totals.shard_index, 0u);
  EXPECT_EQ(totals.seed, 0u);
  EXPECT_TRUE(totals.teardown.clean());
  EXPECT_TRUE(totals.blocking_history.empty());
  EXPECT_TRUE(totals.servers.empty());
  EXPECT_TRUE(totals.resources.sheds.empty());
  EXPECT_EQ(result.payload_bytes_delivered(), totals.payload_bytes_delivered);
}

TEST(CounterTables, FleetTotalsSumEveryServerRowAcrossShards) {
  gfw::CampaignResult result;
  for (std::uint64_t shard = 0; shard < 3; ++shard) {
    gfw::ShardSummary s = make_fleet_summary();
    for (gfw::ServerStats& server : s.servers) {
      std::uint64_t base = 1 + server.server_id;
      for (const auto& row : gfw::kServerCounters) server.*row.field = base++ * (shard + 1);
    }
    result.shards.push_back(s);
  }
  const std::vector<gfw::ServerStats> totals = result.fleet_totals();
  ASSERT_EQ(totals.size(), 2u);
  for (const gfw::ServerStats& server : totals) {
    std::uint64_t base = 1 + server.server_id;
    for (const auto& row : gfw::kServerCounters) {
      EXPECT_EQ(server.*row.field, base++ * 6) << "server " << server.server_id << " "
                                               << row.name;
    }
  }
  // Descriptive fields come from the first shard that saw the server.
  EXPECT_EQ(totals[1].region, "unicom");
  EXPECT_EQ(totals[1].cipher, "aes-256-cfb");
}

}  // namespace
}  // namespace gfwsim
