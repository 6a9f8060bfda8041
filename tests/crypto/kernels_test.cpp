// Known-answer and cross-check tests for the optimized crypto kernels.
//
// The hot paths (T-table / AES-NI AES, table-driven GHASH) must be
// bit-identical to the retained reference kernels and to the published
// vectors: NIST / McGrew-Viega AES-GCM test cases for all three key
// sizes, and the RFC 8439 ChaCha20-Poly1305 vector. The randomized
// sections hammer the fast paths against the reference kernels across
// lengths that exercise the four-block folds, the zero-prefixed 1-3
// block tails, and partial final blocks.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/bytes.h"
#include "crypto/chacha20_poly1305.h"
#include "crypto/cpu.h"
#include "crypto/gcm.h"
#include "crypto/rng.h"

namespace gfwsim::crypto {
namespace {

Bytes unhex(std::string_view s) {
  auto v = hex_decode(s);
  EXPECT_TRUE(v.has_value()) << s;
  return *v;
}

// McGrew & Viega GCM spec / NIST SP 800-38D test cases. PT/AAD are shared
// across key sizes; the 60-byte plaintext (cases 4/10/16) exercises a
// partial final block through both GCTR and GHASH.
constexpr std::string_view kGcmPt64 =
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
constexpr std::string_view kGcmAad = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
constexpr std::string_view kGcmIv = "cafebabefacedbaddecaf888";

struct GcmVector {
  std::string_view name;
  std::string_view key;
  bool with_aad;  // with_aad uses the 60-byte plaintext prefix
  std::string_view ct;
  std::string_view tag;
};

const GcmVector kGcmVectors[] = {
    {"tc3-aes128", "feffe9928665731c6d6a8f9467308308", false,
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"tc4-aes128", "feffe9928665731c6d6a8f9467308308", true,
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
    {"tc9-aes192", "feffe9928665731c6d6a8f9467308308feffe9928665731c", false,
     "3980ca0b3c00e841eb06fac4872a2757859e1ceaa6efd984628593b40ca1e19c"
     "7d773d00c144c525ac619d18c84a3f4718e2448b2fe324d9ccda2710acade256",
     "9924a7c8587336bfb118024db8674a14"},
    {"tc10-aes192", "feffe9928665731c6d6a8f9467308308feffe9928665731c", true,
     "3980ca0b3c00e841eb06fac4872a2757859e1ceaa6efd984628593b40ca1e19c"
     "7d773d00c144c525ac619d18c84a3f4718e2448b2fe324d9ccda2710",
     "2519498e80f1478f37ba55bd6d27618c"},
    {"tc15-aes256",
     "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308", false,
     "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
     "b094dac5d93471bdec1a502270e3cc6c"},
    {"tc16-aes256",
     "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308", true,
     "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
     "76fc6ece0f4e1768cddf8853bb2d551b"},
};

TEST(GcmKat, McGrewViegaAllKeySizes) {
  for (const auto& v : kGcmVectors) {
    SCOPED_TRACE(v.name);
    const Bytes key = unhex(v.key);
    const Bytes iv = unhex(kGcmIv);
    Bytes pt = unhex(kGcmPt64);
    Bytes aad;
    if (v.with_aad) {
      pt.resize(60);
      aad = unhex(kGcmAad);
    }
    const Bytes expected = concat(unhex(v.ct), unhex(v.tag));

    AesGcm gcm(key);
    EXPECT_EQ(hex_encode(gcm.seal(iv, pt, aad)), hex_encode(expected));

    const auto opened = gcm.open(iv, expected, aad);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(hex_encode(*opened), hex_encode(pt));

    // Any single flipped bit must fail authentication.
    Bytes tampered = expected;
    tampered[tampered.size() / 2] ^= 0x01;
    EXPECT_FALSE(gcm.open(iv, tampered, aad).has_value());
  }
}

TEST(ChaChaPolyKat, Rfc8439Section282) {
  const Bytes key =
      unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = unhex("070000004041424344454647");
  const Bytes aad = unhex("50515253c0c1c2c3c4c5c6c7");
  const Bytes pt = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes expected = concat(
      unhex("d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"),
      unhex("1ae10b594f09e26a7e902ecbd0600691"));

  ChaCha20Poly1305 aead(key);
  EXPECT_EQ(hex_encode(aead.seal(nonce, pt, aad)), hex_encode(expected));

  const auto opened = aead.open(nonce, expected, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), to_string(pt));
}

TEST(KernelCrossCheck, AesBlockFastVsReference) {
  Rng rng(0xae5b10c5);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    const Aes aes(rng.bytes(key_len));
    for (int i = 0; i < 256; ++i) {
      std::uint8_t in[Aes::kBlockSize];
      rng.fill(in, sizeof in);
      std::uint8_t fast[Aes::kBlockSize];
      std::uint8_t ref[Aes::kBlockSize];
      aes.encrypt_block(in, fast);
      aes.encrypt_block_reference(in, ref);
      ASSERT_EQ(hex_encode(ByteSpan(fast, sizeof fast)), hex_encode(ByteSpan(ref, sizeof ref)))
          << "key_len=" << key_len << " i=" << i;
    }
  }
}

TEST(KernelCrossCheck, GhashTableVsReference) {
  Rng rng(0x6ba54);
  // Built under the portable cap: the only tier that keeps Shoup tables.
  const AesGcm gcm = [&] {
    ScopedKernelTierCap pin(KernelTier::kPortable);
    return AesGcm(rng.bytes(32));
  }();
  ASSERT_EQ(gcm.ghash_tier(), KernelTier::kPortable);
  // Sweep every length 0..64 plus larger odd sizes: covers the
  // zero-prefixed 1-3 block tails and partial blocks in both the AAD
  // and ciphertext sections.
  for (std::size_t ct_len = 0; ct_len <= 64; ++ct_len) {
    const Bytes aad = rng.bytes(ct_len % 23);
    const Bytes ct = rng.bytes(ct_len);
    ASSERT_EQ(gcm.ghash(aad, ct), gcm.ghash_reference(aad, ct)) << "ct_len=" << ct_len;
  }
  for (const std::size_t ct_len : {97u, 255u, 1500u, 16384u}) {
    const Bytes aad = rng.bytes(41);
    const Bytes ct = rng.bytes(ct_len);
    ASSERT_EQ(gcm.ghash(aad, ct), gcm.ghash_reference(aad, ct)) << "ct_len=" << ct_len;
  }
}

TEST(KernelCrossCheck, GcmSealOpenRoundTripRandomLengths) {
  Rng rng(0x915ea1);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    const AesGcm gcm(rng.bytes(key_len));
    for (int i = 0; i < 64; ++i) {
      const Bytes nonce = rng.bytes(AesGcm::kNonceSize);
      const Bytes aad = rng.bytes(rng.uniform(0, 48));
      const Bytes pt = rng.bytes(rng.uniform(0, 600));
      const Bytes sealed = gcm.seal(nonce, pt, aad);
      ASSERT_EQ(sealed.size(), pt.size() + AesGcm::kTagSize);
      const auto opened = gcm.open(nonce, sealed, aad);
      ASSERT_TRUE(opened.has_value());
      ASSERT_EQ(hex_encode(*opened), hex_encode(pt));
    }
  }
}

}  // namespace
}  // namespace gfwsim::crypto
