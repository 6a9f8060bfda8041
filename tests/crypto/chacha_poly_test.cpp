// RFC 8439 vectors for ChaCha20, Poly1305, and the combined AEAD.
#include <gtest/gtest.h>

#include "crypto/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/chacha20_poly1305.h"
#include "crypto/poly1305.h"
#include "crypto/rng.h"

namespace gfwsim::crypto {
namespace {

Bytes unhex(std::string_view s) {
  auto v = hex_decode(s);
  EXPECT_TRUE(v.has_value()) << s;
  return *v;
}

Bytes sequential_key() {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 section 2.3.2: key 00..1f, nonce 000000090000004a00000000,
  // counter 1. XOR-ing 64 zero bytes exposes the raw keystream block.
  const Bytes key = sequential_key();
  const Bytes nonce = unhex("000000090000004a00000000");
  ChaCha20 stream(key, nonce, 1);
  const Bytes block = stream.transform(Bytes(64, 0));
  EXPECT_EQ(hex_encode(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 section 2.4.2.
  const Bytes key = sequential_key();
  const Bytes nonce = unhex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 stream(key, nonce, 1);
  const Bytes ct = stream.transform(to_bytes(plaintext));
  EXPECT_EQ(hex_encode(ByteSpan(ct.data(), 16)), "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(hex_encode(ByteSpan(ct.data() + ct.size() - 10, 10)), "b40b8eedf2785e42874d");
}

TEST(ChaCha20, LegacyVariantDiffersFromIetf) {
  const Bytes key = sequential_key();
  const Bytes nonce8(8, 0x01);
  const Bytes nonce12 = [] {
    Bytes n(12, 0x00);
    for (int i = 0; i < 8; ++i) n[4 + i] = 0x01;
    return n;
  }();
  ChaCha20 legacy(key, nonce8);
  ChaCha20 ietf(key, nonce12);
  const Bytes msg(64, 0);
  // With counter 0 and the nonce bytes aligned the same way, legacy and
  // IETF layouts coincide for the first block (both place the 8-byte nonce
  // in words 14..15 when the IETF 12-byte nonce has a zero prefix).
  EXPECT_EQ(legacy.transform(msg), ietf.transform(msg));

  // But after 2^32 blocks the counters diverge; more practically, a
  // different nonce prefix changes the IETF keystream.
  Bytes nonce12b = nonce12;
  nonce12b[0] = 0xff;
  ChaCha20 legacy2(key, nonce8);
  ChaCha20 ietf2(key, nonce12b);
  EXPECT_NE(legacy2.transform(msg), ietf2.transform(msg));
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  Rng rng(11);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes msg = rng.bytes(200);

  ChaCha20 whole(key, nonce);
  const Bytes expected = whole.transform(msg);

  ChaCha20 chunked(key, nonce);
  Bytes got;
  for (std::size_t i = 0; i < msg.size(); i += 33) {
    const std::size_t take = std::min<std::size_t>(33, msg.size() - i);
    append(got, chunked.transform(ByteSpan(msg.data() + i, take)));
  }
  EXPECT_EQ(got, expected);
}

TEST(ChaCha20, RejectsBadSizes) {
  const Bytes key(32, 0), short_key(16, 0), nonce(12, 0), bad_nonce(10, 0);
  EXPECT_THROW(ChaCha20(short_key, nonce), std::invalid_argument);
  EXPECT_THROW(ChaCha20(key, bad_nonce), std::invalid_argument);
}

TEST(Poly1305, Rfc8439Vector) {
  const Bytes key =
      unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const auto tag = Poly1305::mac(key, to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(hex_encode(ByteSpan(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, StreamingMatchesOneShot) {
  Rng rng(12);
  const Bytes key = rng.bytes(32);
  const Bytes msg = rng.bytes(175);
  Poly1305 p(key);
  p.update(ByteSpan(msg.data(), 50));
  p.update(ByteSpan(msg.data() + 50, 125));
  const auto streamed = p.finish();
  const auto one_shot = Poly1305::mac(key, msg);
  EXPECT_EQ(hex_encode(ByteSpan(streamed.data(), streamed.size())),
            hex_encode(ByteSpan(one_shot.data(), one_shot.size())));
}

TEST(ChaCha20Poly1305, Rfc8439AeadVector) {
  // RFC 8439 section 2.8.2.
  const Bytes key =
      unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = unhex("070000004041424344454647");
  const Bytes aad = unhex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";

  ChaCha20Poly1305 aead(key);
  const Bytes sealed = aead.seal(nonce, to_bytes(plaintext), aad);
  ASSERT_EQ(sealed.size(), plaintext.size() + 16);
  EXPECT_EQ(hex_encode(ByteSpan(sealed.data(), 16)), "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(hex_encode(ByteSpan(sealed.data() + plaintext.size(), 16)),
            "1ae10b594f09e26a7e902ecbd0600691");

  const auto opened = aead.open(nonce, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), plaintext);
}

TEST(ChaCha20Poly1305, TamperDetection) {
  Rng rng(13);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes pt = rng.bytes(48);
  ChaCha20Poly1305 aead(key);
  Bytes sealed = aead.seal(nonce, pt);

  for (std::size_t pos : {0u, 20u, 47u, 48u, 63u}) {
    Bytes corrupted = sealed;
    corrupted[pos] ^= 0x01;
    EXPECT_FALSE(aead.open(nonce, corrupted).has_value()) << "pos=" << pos;
  }
  Bytes wrong_nonce(nonce.begin(), nonce.end());
  wrong_nonce[0] ^= 1;
  EXPECT_FALSE(aead.open(wrong_nonce, sealed).has_value());
}

TEST(ChaCha20Poly1305, EmptyPlaintextStillAuthenticated) {
  const Bytes key(32, 0x77);
  const Bytes nonce(12, 0x01);
  ChaCha20Poly1305 aead(key);
  const Bytes sealed = aead.seal(nonce, {}, to_bytes("hdr"));
  EXPECT_EQ(sealed.size(), 16u);
  EXPECT_TRUE(aead.open(nonce, sealed, to_bytes("hdr")).has_value());
  EXPECT_FALSE(aead.open(nonce, sealed, to_bytes("hdx")).has_value());
}

}  // namespace
}  // namespace gfwsim::crypto
