#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "proxy/wire.h"

namespace gfwsim::proxy {
namespace {

class WireSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(WireSweep, EncryptorDecryptorRoundTrip) {
  const auto* spec = find_cipher(GetParam());
  ASSERT_NE(spec, nullptr);
  crypto::Rng rng(301);
  const Bytes key = master_key(*spec, "hunter2");

  Encryptor enc(*spec, key, rng);
  Decryptor dec(*spec, key);

  const Bytes msg1 = rng.bytes(100);
  const Bytes msg2 = rng.bytes(300);
  Bytes out;
  dec.feed(enc.encrypt(msg1), out);
  dec.feed(enc.encrypt(msg2), out);
  EXPECT_EQ(out, concat(msg1, msg2));
  EXPECT_EQ(dec.iv_or_salt(), enc.iv_or_salt());
}

TEST_P(WireSweep, FirstPacketRoundTripsThroughDecryptor) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(302);
  const Bytes key = master_key(*spec, "hunter2");

  const auto target = TargetSpec::hostname("www.wikipedia.org", 443);
  const Bytes data = to_bytes("GET / HTTP/1.1\r\nHost: www.wikipedia.org\r\n\r\n");

  for (bool merge : {false, true}) {
    Encryptor enc(*spec, key, rng);
    const Bytes packet = build_first_packet(enc, target, data, merge);

    Decryptor dec(*spec, key);
    Bytes out;
    const auto status = dec.feed(packet, out);
    EXPECT_NE(status, Decryptor::Status::kAuthError);

    const auto parsed = parse_target(out, false);
    ASSERT_EQ(parsed.status, ParseStatus::kOk);
    EXPECT_EQ(parsed.spec, target);
    EXPECT_EQ(Bytes(out.begin() + static_cast<std::ptrdiff_t>(parsed.consumed), out.end()),
              data);
  }
}

// Splitting the stream anywhere in or just past the IV/salt, or feeding
// it a byte at a time, decodes the same bytes as one feed.
TEST_P(WireSweep, SplitFeedsMatchOneShot) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(303);
  const Bytes key = master_key(*spec, "hunter2");
  Encryptor enc(*spec, key, rng);
  const Bytes msg = rng.bytes(120);
  const Bytes wire = enc.encrypt(msg);

  for (std::size_t split = 0; split <= spec->iv_len + 60; ++split) {
    Decryptor dec(*spec, key);
    Bytes out;
    dec.feed(ByteSpan(wire).first(split), out);
    EXPECT_EQ(dec.header_received(), split >= spec->iv_len) << "split=" << split;
    EXPECT_EQ(dec.iv_or_salt().empty(), split < spec->iv_len) << "split=" << split;
    EXPECT_NE(dec.feed(ByteSpan(wire).subspan(split), out), Decryptor::Status::kAuthError);
    EXPECT_EQ(out, msg) << "split=" << split;
    EXPECT_EQ(dec.iv_or_salt(), enc.iv_or_salt());
  }
  Decryptor dec(*spec, key);
  Bytes out;
  for (std::size_t i = 0; i < wire.size(); ++i) dec.feed(ByteSpan(wire).subspan(i, 1), out);
  EXPECT_EQ(out, msg);
}

INSTANTIATE_TEST_SUITE_P(Methods, WireSweep,
                         ::testing::Values("aes-256-cfb", "aes-128-ctr", "rc4-md5",
                                           "chacha20", "chacha20-ietf", "aes-128-gcm",
                                           "aes-256-gcm", "chacha20-ietf-poly1305"));

TEST(Wire, StreamFirstPacketLayout) {
  // stream: [IV][E(target || data)] -> length = iv_len + 7 + len(data).
  const auto* spec = find_cipher("aes-256-cfb");
  crypto::Rng rng(303);
  const Bytes key = master_key(*spec, "pw");
  Encryptor enc(*spec, key, rng);
  const Bytes data(100, 0x55);
  const Bytes packet =
      build_first_packet(enc, TargetSpec::ipv4(net::Ipv4(1, 2, 3, 4), 80), data, false);
  EXPECT_EQ(packet.size(), 16u + 7 + 100);
}

TEST(Wire, AeadFirstPacketLayoutClassicVsMerged) {
  // classic: salt + (2+16 + H + 16) + (2+16 + D + 16)
  // merged:  salt + (2+16 + H+D + 16)
  const auto* spec = find_cipher("chacha20-ietf-poly1305");
  crypto::Rng rng(304);
  const Bytes key = master_key(*spec, "pw");
  const auto target = TargetSpec::hostname("example.com", 443);  // H = 1+1+11+2 = 15
  const Bytes data(100, 0x55);

  Encryptor enc_classic(*spec, key, rng);
  const Bytes classic = build_first_packet(enc_classic, target, data, false);
  EXPECT_EQ(classic.size(), 32u + (2 + 16 + 15 + 16) + (2 + 16 + 100 + 16));

  Encryptor enc_merged(*spec, key, rng);
  const Bytes merged = build_first_packet(enc_merged, target, data, true);
  EXPECT_EQ(merged.size(), 32u + (2 + 16 + 115 + 16));
}

TEST(Wire, ClassicAeadHeaderChunkLeaksTargetLength) {
  // The pre-July-2020 fingerprint the paper discusses: for a fixed target
  // the classic first packet has a *fixed* prefix structure, and two
  // connections to the same hostname differ in length only via the data.
  const auto* spec = find_cipher("aes-128-gcm");
  crypto::Rng rng(305);
  const Bytes key = master_key(*spec, "pw");
  const auto target = TargetSpec::hostname("a.example", 443);

  Encryptor e1(*spec, key, rng), e2(*spec, key, rng);
  const Bytes p1 = build_first_packet(e1, target, Bytes(40, 1), false);
  const Bytes p2 = build_first_packet(e2, target, Bytes(90, 2), false);
  EXPECT_EQ(p2.size() - p1.size(), 50u);  // only the data chunk varies
}

TEST(Wire, WrongPasswordFailsAeadAndGarblesStream) {
  crypto::Rng rng(306);
  {
    const auto* spec = find_cipher("aes-256-gcm");
    Encryptor enc(*spec, master_key(*spec, "right"), rng);
    Decryptor dec(*spec, master_key(*spec, "wrong"));
    Bytes out;
    EXPECT_EQ(dec.feed(enc.encrypt(to_bytes("secret")), out), Decryptor::Status::kAuthError);
  }
  {
    const auto* spec = find_cipher("aes-256-ctr");
    Encryptor enc(*spec, master_key(*spec, "right"), rng);
    Decryptor dec(*spec, master_key(*spec, "wrong"));
    Bytes out;
    // Stream construction has no integrity: decryption "succeeds" but
    // produces garbage — the root cause of the probing vulnerabilities.
    EXPECT_EQ(dec.feed(enc.encrypt(to_bytes("secret")), out), Decryptor::Status::kData);
    EXPECT_NE(out, to_bytes("secret"));
  }
}

TEST(Wire, EachEncryptorDrawsFreshIv) {
  const auto* spec = find_cipher("aes-256-gcm");
  crypto::Rng rng(307);
  const Bytes key = master_key(*spec, "pw");
  Encryptor a(*spec, key, rng), b(*spec, key, rng);
  EXPECT_NE(a.iv_or_salt(), b.iv_or_salt());
}

}  // namespace
}  // namespace gfwsim::proxy
