// Timing metadata as a fingerprint (paper sections 7.2 / 8, citing Frolov
// et al.: proxies can be identified by TCP flags AND timing after close).
//
// The prober simulator records reaction latency; these tests pin the
// distinguishable timing classes the simulation reproduces:
//   * protocol-error RSTs land at network RTT (~0.1 s);
//   * failed-upstream FIN/ACKs land after the DNS/connect failure delay;
//   * timeouts are bounded only by the prober's own patience;
// and that the hardened server exposes no timing structure at all.
#include <gtest/gtest.h>

#include "probesim/probesim.h"

namespace gfwsim::probesim {
namespace {

ServerSetup setup_for(ServerSetup::Impl impl, const char* cipher) {
  ServerSetup setup;
  setup.impl = impl;
  setup.cipher = cipher;
  return setup;
}

TEST(TimingFingerprint, RstLatencyIsRoundTripTime) {
  ProbeLab lab(setup_for(ServerSetup::Impl::kLibevOld, "aes-128-gcm"), 0x71);
  for (int i = 0; i < 8; ++i) {
    const auto result = lab.prober().send_random_probe(100);
    ASSERT_EQ(result.reaction, Reaction::kRst);
    EXPECT_LT(net::to_seconds(result.latency), 0.5) << i;
  }
}

TEST(TimingFingerprint, DnsFailureFinIsSlowerThanRst) {
  // A probe crafted (with the password) to dial a garbage hostname: the
  // FIN arrives only after the simulated DNS failure, creating a
  // measurable latency class distinct from protocol-error reactions.
  ProbeLab lab(setup_for(ServerSetup::Impl::kLibevOld, "aes-256-ctr"), 0x72);
  const Bytes packet = lab.legitimate_first_packet(
      proxy::TargetSpec::hostname("garbage-host.invalid", 80), to_bytes("x"));
  const auto result = lab.prober().send_probe(packet);
  ASSERT_EQ(result.reaction, Reaction::kFinAck);
  EXPECT_GT(net::to_seconds(result.latency), 0.2);
  EXPECT_LT(net::to_seconds(result.latency), 2.0);
}

TEST(TimingFingerprint, TimeoutLatencyEqualsProberPatience) {
  ProbeLab lab(setup_for(ServerSetup::Impl::kOutline107, "chacha20-ietf-poly1305"), 0x73);
  const auto result = lab.prober().send_random_probe(221);
  ASSERT_EQ(result.reaction, Reaction::kTimeout);
  EXPECT_EQ(result.latency, lab.prober().probe_timeout);
}

TEST(TimingFingerprint, Outline106FinAt50IsImmediate) {
  // The v1.0.6 FIN/ACK cell fires on parse, not on upstream failure: its
  // latency class is RTT, unlike the DNS-failure FINs above. An attacker
  // distinguishes the two FIN flavours purely by timing.
  ProbeLab lab(setup_for(ServerSetup::Impl::kOutline106, "chacha20-ietf-poly1305"), 0x74);
  const auto result = lab.prober().send_random_probe(50);
  ASSERT_EQ(result.reaction, Reaction::kFinAck);
  EXPECT_LT(net::to_seconds(result.latency), 0.5);
}

TEST(TimingFingerprint, SsPythonErrorFinIsImmediate) {
  ProbeLab lab(setup_for(ServerSetup::Impl::kSsPython, "aes-256-cfb"), 0x75);
  // Find an invalid-atyp FIN (the overwhelmingly common case).
  for (int i = 0; i < 16; ++i) {
    const auto result = lab.prober().send_random_probe(60);
    if (result.reaction != Reaction::kFinAck) continue;
    EXPECT_LT(net::to_seconds(result.latency), 0.5);
    return;
  }
  FAIL() << "no FIN observed";
}

TEST(TimingFingerprint, HardenedServerHasNoTimingStructure) {
  ProbeLab lab(setup_for(ServerSetup::Impl::kHardened, "chacha20-ietf-poly1305"), 0x76);
  for (const std::size_t len : {8u, 50u, 100u, 221u}) {
    const auto result = lab.prober().send_random_probe(len);
    EXPECT_EQ(result.reaction, Reaction::kTimeout);
    EXPECT_EQ(result.latency, lab.prober().probe_timeout) << len;
  }
}

// Cross-version behaviour matrix: every (implementation, cipher) pair's
// reaction to the canonical 221-byte probe, as one parameterized sweep.
struct MatrixCase {
  ServerSetup::Impl impl;
  const char* cipher;
  Reaction expected_at_221;

  // Names the test case; without it gtest prints the raw bytes, padding and
  // the cipher's address included, so the name would change with every build.
  friend void PrintTo(const MatrixCase& c, std::ostream* os) {
    *os << impl_name(c.impl) << ", " << c.cipher;
  }
};

class VersionMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(VersionMatrix, Nr2ReactionMatchesModel) {
  const MatrixCase& c = GetParam();
  ProbeLab lab(setup_for(c.impl, c.cipher), 0x77);
  ReactionTally tally;
  for (int i = 0; i < 12; ++i) tally.add(lab.prober().send_random_probe(221).reaction);
  // The expected reaction must be the dominant one.
  int expected_count = 0;
  switch (c.expected_at_221) {
    case Reaction::kRst: expected_count = tally.rst; break;
    case Reaction::kTimeout: expected_count = tally.timeout; break;
    case Reaction::kFinAck: expected_count = tally.fin; break;
    case Reaction::kData: expected_count = tally.data; break;
  }
  EXPECT_GT(expected_count, 6) << impl_name(c.impl) << "/" << c.cipher << ": "
                               << tally.label();
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, VersionMatrix,
    ::testing::Values(
        MatrixCase{ServerSetup::Impl::kLibevOld, "rc4-md5", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "aes-128-ctr", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "aes-192-ctr", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "aes-256-cfb", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "chacha20", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "chacha20-ietf", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "aes-128-gcm", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "aes-192-gcm", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevOld, "aes-256-gcm", Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kLibevNew, "aes-256-ctr", Reaction::kTimeout},
        MatrixCase{ServerSetup::Impl::kLibevNew, "aes-256-gcm", Reaction::kTimeout},
        MatrixCase{ServerSetup::Impl::kOutline106, "chacha20-ietf-poly1305",
                   Reaction::kRst},
        MatrixCase{ServerSetup::Impl::kOutline107, "chacha20-ietf-poly1305",
                   Reaction::kTimeout},
        MatrixCase{ServerSetup::Impl::kOutline110, "chacha20-ietf-poly1305",
                   Reaction::kTimeout},
        MatrixCase{ServerSetup::Impl::kSsPython, "aes-256-cfb", Reaction::kFinAck},
        MatrixCase{ServerSetup::Impl::kSsr, "aes-256-cfb", Reaction::kTimeout},
        MatrixCase{ServerSetup::Impl::kHardened, "aes-256-gcm", Reaction::kTimeout}));

}  // namespace
}  // namespace gfwsim::probesim
