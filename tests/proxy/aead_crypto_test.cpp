#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/hkdf.h"
#include "crypto/rng.h"
#include "proxy/aead_crypto.h"

namespace gfwsim::proxy {
namespace {

class AeadCipherSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(AeadCipherSweep, SealOpenRoundTrip) {
  const auto* spec = find_cipher(GetParam());
  ASSERT_NE(spec, nullptr);
  ASSERT_EQ(spec->kind, CipherKind::kAead);

  crypto::Rng rng(201);
  const Bytes key = aead_master_key(*spec, "password");
  const Bytes salt = rng.bytes(spec->iv_len);
  const Bytes msg = rng.bytes(50);

  AeadSession enc(*spec, key, salt);
  AeadSession dec(*spec, key, salt);
  const Bytes sealed = enc.seal(msg);
  EXPECT_EQ(sealed.size(), msg.size() + kAeadTagLen);
  const auto opened = dec.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST_P(AeadCipherSweep, NonceAdvancesPerOperation) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(202);
  const Bytes key = aead_master_key(*spec, "password");
  const Bytes salt = rng.bytes(spec->iv_len);

  AeadSession enc(*spec, key, salt);
  EXPECT_EQ(enc.nonce_counter(), 0u);
  const Bytes a = enc.seal(to_bytes("same"));
  EXPECT_EQ(enc.nonce_counter(), 1u);
  const Bytes b = enc.seal(to_bytes("same"));
  EXPECT_EQ(enc.nonce_counter(), 2u);
  EXPECT_NE(a, b);  // different nonces -> different ciphertexts
}

TEST_P(AeadCipherSweep, FailedOpenDoesNotAdvanceNonce) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(203);
  const Bytes key = aead_master_key(*spec, "password");
  const Bytes salt = rng.bytes(spec->iv_len);

  AeadSession enc(*spec, key, salt);
  AeadSession dec(*spec, key, salt);
  Bytes sealed = enc.seal(to_bytes("payload"));
  Bytes corrupted = sealed;
  corrupted[0] ^= 1;
  EXPECT_FALSE(dec.open(corrupted).has_value());
  EXPECT_EQ(dec.nonce_counter(), 0u);
  // Original still opens after the failure.
  EXPECT_TRUE(dec.open(sealed).has_value());
}

TEST_P(AeadCipherSweep, ChunkWriterReaderRoundTrip) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(204);
  const Bytes key = aead_master_key(*spec, "password");
  const Bytes salt = rng.bytes(spec->iv_len);
  const Bytes msg = rng.bytes(1000);

  AeadChunkWriter writer(*spec, key, salt);
  Bytes wire = salt;
  append(wire, writer.encode(msg));

  AeadChunkReader reader(*spec, key);
  Bytes out;
  EXPECT_EQ(reader.feed(wire, out), AeadChunkReader::Status::kData);
  EXPECT_EQ(out, msg);
  EXPECT_EQ(reader.salt(), salt);
}

// A reader's stream: the salt, then one encode() per payload. `boundaries`
// holds the offset at which the salt and every sealed length or payload
// chunk ends.
struct ChunkedWire {
  Bytes wire;
  Bytes plain;
  std::vector<std::size_t> boundaries;
};

ChunkedWire chunked_wire(const CipherSpec& spec, ByteSpan key, crypto::Rng& rng,
                         const std::vector<std::size_t>& payload_sizes) {
  ChunkedWire w;
  w.wire = rng.bytes(spec.iv_len);
  w.boundaries.push_back(w.wire.size());
  AeadChunkWriter writer(spec, key, w.wire);
  for (const std::size_t size : payload_sizes) {
    const Bytes payload = rng.bytes(size);
    append(w.wire, writer.encode(payload));
    append(w.plain, payload);
    std::size_t offset = 0;
    do {
      const std::size_t take = std::min(kAeadMaxChunkPayload, size - offset);
      w.boundaries.push_back(w.boundaries.back() + kAeadLenFieldLen + kAeadTagLen);
      w.boundaries.push_back(w.boundaries.back() + take + kAeadTagLen);
      offset += take;
    } while (offset < size);
  }
  EXPECT_EQ(w.boundaries.back(), w.wire.size());
  return w;
}

// Payload sizes crossing the 0x3fff chunk limit, plus an empty chunk.
const std::vector<std::size_t> kSplitSizes = {37, 0, kAeadMaxChunkPayload,
                                              kAeadMaxChunkPayload + 1, 40000};

TEST_P(AeadCipherSweep, ReaderSplitFeedsMatchOneShot) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(210);
  const Bytes key = aead_master_key(*spec, "password");
  const ChunkedWire w = chunked_wire(*spec, key, rng, kSplitSizes);
  {
    AeadChunkReader reader(*spec, key);
    Bytes out;
    ASSERT_EQ(reader.feed(w.wire, out), AeadChunkReader::Status::kData);
    ASSERT_EQ(out, w.plain);
    EXPECT_EQ(reader.buffered(), 0u);
  }
  // Two feeds split at, one before and one after every chunk boundary.
  for (const std::size_t boundary : w.boundaries) {
    for (const std::size_t split : {boundary - 1, boundary, boundary + 1}) {
      if (split > w.wire.size()) continue;
      AeadChunkReader reader(*spec, key);
      Bytes out;
      const ByteSpan wire(w.wire);
      EXPECT_NE(reader.feed(wire.first(split), out), AeadChunkReader::Status::kAuthError);
      EXPECT_NE(reader.feed(wire.subspan(split), out), AeadChunkReader::Status::kAuthError);
      ASSERT_EQ(out, w.plain) << "split=" << split;
      EXPECT_EQ(reader.buffered(), 0u);
    }
  }
  // Random multi-piece splits.
  for (int trial = 0; trial < 16; ++trial) {
    AeadChunkReader reader(*spec, key);
    Bytes out;
    std::size_t offset = 0;
    while (offset < w.wire.size()) {
      const std::size_t take =
          std::min<std::size_t>(rng.uniform(1, 3000), w.wire.size() - offset);
      ASSERT_NE(reader.feed(ByteSpan(w.wire).subspan(offset, take), out),
                AeadChunkReader::Status::kAuthError);
      offset += take;
    }
    ASSERT_EQ(out, w.plain) << "trial=" << trial;
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST_P(AeadCipherSweep, ReaderHoldsOnlyThePartialChunk) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(211);
  const Bytes key = aead_master_key(*spec, "password");
  const ChunkedWire w = chunked_wire(*spec, key, rng, kSplitSizes);

  AeadChunkReader reader(*spec, key);
  Bytes out;
  std::size_t start = 0;
  for (const std::size_t end : w.boundaries) {
    const std::size_t half = (end - start) / 2;
    reader.feed(ByteSpan(w.wire).subspan(start, half), out);
    EXPECT_EQ(reader.buffered(), half) << "chunk ending at " << end;
    reader.feed(ByteSpan(w.wire).subspan(start + half, end - start - half), out);
    EXPECT_EQ(reader.buffered(), 0u) << "chunk ending at " << end;
    start = end;
  }
  EXPECT_EQ(out, w.plain);
}

TEST_P(AeadCipherSweep, ReaderFlippedByteAnywhereIsAuthError) {
  const auto* spec = find_cipher(GetParam());
  crypto::Rng rng(212);
  const Bytes key = aead_master_key(*spec, "password");
  const ChunkedWire w = chunked_wire(*spec, key, rng, {20, 45});
  for (std::size_t pos = 0; pos < w.wire.size(); ++pos) {
    Bytes tampered = w.wire;
    tampered[pos] ^= 0x20;
    AeadChunkReader reader(*spec, key);
    Bytes out;
    EXPECT_EQ(reader.feed(tampered, out), AeadChunkReader::Status::kAuthError) << "pos=" << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAeadCiphers, AeadCipherSweep,
                         ::testing::Values("aes-128-gcm", "aes-192-gcm", "aes-256-gcm",
                                           "chacha20-ietf-poly1305"));

TEST(AeadSession, SubkeyIsHkdfSha1OfSalt) {
  // Interop check: the wire format of a sealed chunk must be decryptable
  // by a session constructed from the HKDF-derived subkey semantics.
  const auto* spec = find_cipher("aes-256-gcm");
  const Bytes key = aead_master_key(*spec, "pw");
  Bytes salt_a(32, 0xaa), salt_b(32, 0xbb);
  AeadSession a(*spec, key, salt_a);
  AeadSession b(*spec, key, salt_b);
  EXPECT_NE(a.seal(to_bytes("x")), b.seal(to_bytes("x")));
}

TEST(AeadChunkReader, ByteAtATimeFeeding) {
  const auto* spec = find_cipher("chacha20-ietf-poly1305");
  crypto::Rng rng(205);
  const Bytes key = aead_master_key(*spec, "pw");
  const Bytes salt = rng.bytes(32);
  const Bytes msg = to_bytes("trickled through the firewall one byte at a time");

  AeadChunkWriter writer(*spec, key, salt);
  Bytes wire = salt;
  append(wire, writer.encode(msg));

  AeadChunkReader reader(*spec, key);
  Bytes out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const auto status = reader.feed(ByteSpan(wire.data() + i, 1), out);
    EXPECT_NE(status, AeadChunkReader::Status::kAuthError);
  }
  EXPECT_EQ(out, msg);
}

TEST(AeadChunkReader, MultipleChunksAndLargePayload) {
  const auto* spec = find_cipher("aes-128-gcm");
  crypto::Rng rng(206);
  const Bytes key = aead_master_key(*spec, "pw");
  const Bytes salt = rng.bytes(16);
  // Exceeds kAeadMaxChunkPayload -> split into multiple chunks.
  const Bytes msg = rng.bytes(0x3fff * 2 + 100);

  AeadChunkWriter writer(*spec, key, salt);
  Bytes wire = salt;
  append(wire, writer.encode(msg));

  AeadChunkReader reader(*spec, key);
  Bytes out;
  reader.feed(wire, out);
  EXPECT_EQ(out, msg);
}

TEST(AeadChunkReader, TamperedLengthFieldIsAuthError) {
  const auto* spec = find_cipher("aes-256-gcm");
  crypto::Rng rng(207);
  const Bytes key = aead_master_key(*spec, "pw");
  const Bytes salt = rng.bytes(32);

  AeadChunkWriter writer(*spec, key, salt);
  Bytes wire = salt;
  append(wire, writer.encode(to_bytes("hello")));
  wire[salt.size()] ^= 0x40;  // flip a bit in the sealed length field

  AeadChunkReader reader(*spec, key);
  Bytes out;
  EXPECT_EQ(reader.feed(wire, out), AeadChunkReader::Status::kAuthError);
  EXPECT_TRUE(out.empty());
  // Once failed, always failed.
  EXPECT_EQ(reader.feed(to_bytes("more"), out), AeadChunkReader::Status::kAuthError);
}

TEST(AeadChunkReader, RandomProbeBytesAreAuthError) {
  // What a GFW random probe looks like to a spec-compliant AEAD server:
  // garbage salt derives *some* subkey, and the first length-open fails.
  const auto* spec = find_cipher("chacha20-ietf-poly1305");
  crypto::Rng rng(208);
  const Bytes key = aead_master_key(*spec, "pw");
  const Bytes probe = rng.bytes(221);  // type NR2 length

  AeadChunkReader reader(*spec, key);
  Bytes out;
  EXPECT_EQ(reader.feed(probe, out), AeadChunkReader::Status::kAuthError);
}

TEST(AeadChunkReader, ShortRandomProbeJustWaits) {
  const auto* spec = find_cipher("chacha20-ietf-poly1305");
  crypto::Rng rng(209);
  const Bytes key = aead_master_key(*spec, "pw");
  const Bytes probe = rng.bytes(49);  // below salt(32)+len(2)+tag(16)=50

  AeadChunkReader reader(*spec, key);
  Bytes out;
  EXPECT_EQ(reader.feed(probe, out), AeadChunkReader::Status::kNeedMore);
}

TEST(AeadSession, RejectsMismatchedParameters) {
  const auto* spec = find_cipher("aes-256-gcm");
  const Bytes key(32, 1), salt(32, 2), bad_salt(16, 2), bad_key(16, 1);
  EXPECT_THROW(AeadSession(*spec, bad_key, salt), std::invalid_argument);
  EXPECT_THROW(AeadSession(*spec, key, bad_salt), std::invalid_argument);
  const auto* stream_spec = find_cipher("aes-256-ctr");
  EXPECT_THROW(AeadSession(*stream_spec, key, Bytes(16, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace gfwsim::proxy
