// The section 5.2.2 loop closed: infer_server_profile() must recover the
// ground truth for every server model in the lab.
#include <gtest/gtest.h>

#include "probesim/inference.h"

namespace gfwsim::probesim {
namespace {

ServerProfile profile_of(ServerSetup::Impl impl, const std::string& cipher,
                         std::uint64_t seed) {
  ServerSetup setup;
  setup.impl = impl;
  setup.cipher = cipher;
  ProbeLab lab(setup, seed);
  return infer_server_profile(lab.prober());
}

TEST(Inference, LibevOldStreamAes) {
  const auto profile = profile_of(ServerSetup::Impl::kLibevOld, "aes-256-ctr", 0x1F1);
  EXPECT_TRUE(profile.distinguishable);
  EXPECT_EQ(profile.construction, ServerProfile::Construction::kStream);
  EXPECT_EQ(profile.generation, ServerProfile::Generation::kErrorRevealing);
  ASSERT_TRUE(profile.iv_or_salt_len.has_value());
  EXPECT_EQ(*profile.iv_or_salt_len, 16u);
  ASSERT_TRUE(profile.atyp_masked.has_value());
  EXPECT_TRUE(*profile.atyp_masked);
  EXPECT_TRUE(profile.replay_filter_suspected);  // ppbloom double-send tell
}

TEST(Inference, LibevOldStreamChaCha20PinsTheCipher) {
  // A 12-byte IV identifies chacha20-ietf exactly (section 5.2.2).
  const auto profile = profile_of(ServerSetup::Impl::kLibevOld, "chacha20-ietf", 0x1F2);
  ASSERT_TRUE(profile.iv_or_salt_len.has_value());
  EXPECT_EQ(*profile.iv_or_salt_len, 12u);
  ASSERT_TRUE(profile.cipher_hint.has_value());
  EXPECT_EQ(*profile.cipher_hint, "chacha20-ietf");
}

TEST(Inference, LibevOldStreamEightByteIv) {
  const auto profile = profile_of(ServerSetup::Impl::kLibevOld, "chacha20", 0x1F3);
  ASSERT_TRUE(profile.iv_or_salt_len.has_value());
  EXPECT_EQ(*profile.iv_or_salt_len, 8u);
}

// std::string rather than const char*: gtest prints a char pointer with its
// address, which would put a per-build address into the test's name.
class AeadSaltSweep
    : public ::testing::TestWithParam<std::pair<std::string, std::size_t>> {};

TEST_P(AeadSaltSweep, LibevOldAeadSaltRecovered) {
  const auto [cipher, salt] = GetParam();
  const auto profile = profile_of(ServerSetup::Impl::kLibevOld, cipher, 0x1F4);
  EXPECT_TRUE(profile.distinguishable);
  EXPECT_EQ(profile.construction, ServerProfile::Construction::kAead);
  EXPECT_EQ(profile.generation, ServerProfile::Generation::kErrorRevealing);
  ASSERT_TRUE(profile.iv_or_salt_len.has_value());
  EXPECT_EQ(*profile.iv_or_salt_len, salt);
}

INSTANTIATE_TEST_SUITE_P(Salts, AeadSaltSweep,
                         ::testing::Values(std::make_pair(std::string("aes-128-gcm"), 16u),
                                           std::make_pair(std::string("aes-192-gcm"), 24u),
                                           std::make_pair(std::string("aes-256-gcm"), 32u)));

TEST(Inference, Outline106Signature) {
  const auto profile =
      profile_of(ServerSetup::Impl::kOutline106, "chacha20-ietf-poly1305", 0x1F5);
  EXPECT_TRUE(profile.distinguishable);
  EXPECT_TRUE(profile.outline_v106_signature);
  ASSERT_TRUE(profile.cipher_hint.has_value());
  EXPECT_EQ(*profile.cipher_hint, "chacha20-ietf-poly1305");
}

TEST(Inference, LibevNewStreamIsStillFingerprintable) {
  // v3.3.1+ silenced the RSTs, but the occasional FIN from a failed
  // upstream dial still reveals a masked stream parser.
  const auto profile = profile_of(ServerSetup::Impl::kLibevNew, "aes-256-ctr", 0x1F6);
  EXPECT_TRUE(profile.distinguishable);
  EXPECT_EQ(profile.construction, ServerProfile::Construction::kStream);
  EXPECT_EQ(profile.generation, ServerProfile::Generation::kProbeResistant);
}

TEST(Inference, SsPythonProfile) {
  const auto profile = profile_of(ServerSetup::Impl::kSsPython, "aes-256-cfb", 0x1F7);
  EXPECT_TRUE(profile.distinguishable);
  EXPECT_EQ(profile.construction, ServerProfile::Construction::kStream);
  EXPECT_EQ(profile.generation, ServerProfile::Generation::kErrorRevealing);
  ASSERT_TRUE(profile.atyp_masked.has_value());
  EXPECT_FALSE(*profile.atyp_masked);  // strict parser, FIN at 253/256 rate
  ASSERT_TRUE(profile.iv_or_salt_len.has_value());
  EXPECT_EQ(*profile.iv_or_salt_len, 16u);
  EXPECT_FALSE(profile.replay_filter_suspected);  // the section 6 weakness
}

TEST(Inference, ProbeResistantServersAreIndistinguishable) {
  // The paper's end-state recommendation: nothing to fingerprint.
  for (const auto impl : {ServerSetup::Impl::kOutline107, ServerSetup::Impl::kOutline110,
                          ServerSetup::Impl::kLibevNew, ServerSetup::Impl::kHardened}) {
    const std::string cipher =
        impl == ServerSetup::Impl::kLibevNew ? "aes-256-gcm" : "chacha20-ietf-poly1305";
    const auto profile = profile_of(impl, cipher, 0x1F8);
    EXPECT_FALSE(profile.distinguishable) << impl_name(impl) << ": " << profile.describe();
  }
}

TEST(Inference, DescribeIsHumanReadable) {
  const auto fingerprintable = profile_of(ServerSetup::Impl::kLibevOld, "aes-256-ctr", 0x1F9);
  EXPECT_NE(fingerprintable.describe().find("stream"), std::string::npos);
  EXPECT_NE(fingerprintable.describe().find("IV 16"), std::string::npos);

  const auto silent =
      profile_of(ServerSetup::Impl::kHardened, "chacha20-ietf-poly1305", 0x1FA);
  EXPECT_NE(silent.describe().find("probe-resistant"), std::string::npos);
}

}  // namespace
}  // namespace gfwsim::probesim
