// Edge-case sweeps for the batched wide kernels behind the tier-dispatch
// harness: AES-NI/GCM, 4- and 8-lane ChaCha20, radix-2^44 and 4-way AVX2
// Poly1305, SHA-NI SHA-1.
//
// Every test pins the kernel-tier cap (ScopedKernelTierCap) and checks
// the portable-batched and SIMD tiers byte-for-byte against the
// reference tier at every lane occupancy the batch loops can see
// (1..8 AES blocks per aes_encrypt_blocks call, 1..8 ChaCha states per
// 256- or 512-byte pass), every tail length 0..129 bytes, unaligned
// buffers, in-place and split transforms, and counter wrap in every lane
// for both ChaCha variants. On
// hosts without the SIMD extensions the kSimd cap degrades to the
// portable tier, so the sweeps still pass (they just cross-check
// portable against reference twice). The per-tier SHA-1 and Poly1305
// suites at the end pin one tier each instead, and skip the simd tier on
// a host without the feature it needs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/chacha20_poly1305.h"
#include "crypto/cpu.h"
#include "crypto/gcm.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/poly1305.h"
#include "crypto/rng.h"
#include "crypto/sha1.h"

#ifdef GFWSIM_HAVE_X86_SIMD
#include "crypto/simd_kernels.h"
#endif

namespace gfwsim::crypto {

// Names a tier in test output (ctest lists each AllTiers/* case with it).
void PrintTo(KernelTier tier, std::ostream* os) { *os << tier_name(tier); }

namespace {

constexpr KernelTier kCaps[] = {KernelTier::kReference, KernelTier::kPortable,
                                KernelTier::kSimd};

TEST(WideKernels, DispatchRespectsCap) {
  for (const KernelTier cap : kCaps) {
    ScopedKernelTierCap pin(cap);
    const KernelTiers t = active_kernel_tiers();
    EXPECT_LE(static_cast<int>(t.aes), static_cast<int>(cap));
    EXPECT_LE(static_cast<int>(t.ghash), static_cast<int>(cap));
    EXPECT_LE(static_cast<int>(t.chacha), static_cast<int>(cap));
    EXPECT_LE(static_cast<int>(t.poly1305), static_cast<int>(cap));
    EXPECT_LE(static_cast<int>(t.sha1), static_cast<int>(cap));
  }
  EXPECT_FALSE(cpu_feature_string().empty());
  EXPECT_STREQ(tier_name(KernelTier::kReference), "reference");
}

// ---- AES block batches ----------------------------------------------------

// Every lane occupancy of aes_encrypt_blocks: 1..8 exercises the tail
// kernel and the full 8-chain pass; 9..17 exercises the chunk-then-tail
// split. Expected bytes come from the retained byte-wise kernel.
TEST(WideKernels, AesEncryptBlocksAllLaneOccupancies) {
  Rng rng(0x51bb7e01);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    const Aes aes(rng.bytes(key_len));
    for (std::size_t n = 1; n <= 17; ++n) {
      std::vector<std::uint8_t> in(16 * n), expected(16 * n);
      rng.fill(in.data(), in.size());
      for (std::size_t b = 0; b < n; ++b) {
        aes.encrypt_block_reference(in.data() + 16 * b, expected.data() + 16 * b);
      }
      for (const KernelTier cap : kCaps) {
        ScopedKernelTierCap pin(cap);
        std::vector<std::uint8_t> out(16 * n, 0xa5);
        aes.encrypt_blocks(in.data(), out.data(), n);
        EXPECT_EQ(out, expected) << "key=" << key_len << " n=" << n
                                 << " cap=" << tier_name(cap);
      }
    }
  }
}

// Unaligned source/destination pointers through the batched kernel (the
// SIMD tier must use unaligned loads/stores throughout).
TEST(WideKernels, AesEncryptBlocksUnalignedBuffers) {
  Rng rng(0x7d201c);
  const Aes aes(rng.bytes(32));
  std::vector<std::uint8_t> raw_in(16 * 8 + 1), raw_out(16 * 8 + 1);
  for (std::size_t misalign = 0; misalign <= 1; ++misalign) {
    std::uint8_t* in = raw_in.data() + misalign;
    std::uint8_t* out = raw_out.data() + misalign;
    rng.fill(in, 16 * 8);
    std::vector<std::uint8_t> expected(16 * 8);
    for (std::size_t b = 0; b < 8; ++b) {
      aes.encrypt_block_reference(in + 16 * b, expected.data() + 16 * b);
    }
    for (const KernelTier cap : kCaps) {
      ScopedKernelTierCap pin(cap);
      aes.encrypt_blocks(in, out, 8);
      EXPECT_EQ(0, std::memcmp(out, expected.data(), 16 * 8))
          << "misalign=" << misalign << " cap=" << tier_name(cap);
    }
  }
}

// ---- AES-CTR --------------------------------------------------------------

// All tail lengths 0..129 plus sizes that straddle the 8-block batch,
// including a counter wrap across the whole 16-byte block. Also checks
// in-place operation and split calls (drain path + batch path in one
// stream).
TEST(WideKernels, AesCtrAllTailLengthsAndWrap) {
  Rng rng(0x3e91f2);
  const Bytes key = rng.bytes(16);
  // IV one block before full wrap, so an 8-block batch carries through
  // every counter byte.
  Bytes iv(16, 0xff);
  iv[15] = 0xfe;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 129; ++n) lengths.push_back(n);
  for (const std::size_t n : {255u, 256u, 257u, 1024u}) lengths.push_back(n);
  for (const std::size_t len : lengths) {
    const Bytes data = rng.bytes(len);
    AesCtr ref_ctr(key, iv);
    Bytes expected(len);
    {
      ScopedKernelTierCap pin(KernelTier::kReference);
      ref_ctr.transform(data, expected.data());
    }
    for (const KernelTier cap : kCaps) {
      ScopedKernelTierCap pin(cap);
      AesCtr ctr(key, iv);
      Bytes out = ctr.transform(data);
      EXPECT_EQ(out, expected) << "len=" << len << " cap=" << tier_name(cap);
      // In-place, split at an odd boundary so the second call starts on
      // the buffered-keystream drain path.
      AesCtr ctr2(key, iv);
      Bytes inplace = data;
      const std::size_t cut = len / 3;
      ctr2.transform(ByteSpan(inplace.data(), cut), inplace.data());
      ctr2.transform(ByteSpan(inplace.data() + cut, len - cut), inplace.data() + cut);
      EXPECT_EQ(inplace, expected) << "in-place len=" << len << " cap=" << tier_name(cap);
    }
  }
}

// ---- ChaCha20 -------------------------------------------------------------

// Lane occupancies 1..8 of the 4- and 8-way passes (256 or 512 bytes)
// plus every tail length 0..129, for both the IETF and legacy variants,
// checked against the reference tier. Includes in-place operation.
TEST(WideKernels, ChaChaAllLaneOccupanciesAndTails) {
  Rng rng(0xc4a0b1);
  const Bytes key = rng.bytes(32);
  for (const std::size_t nonce_len : {12u, 8u}) {
    const Bytes nonce = rng.bytes(nonce_len);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 129; ++n) lengths.push_back(n);
    // Full and partial passes of either width, with and without spill.
    for (const std::size_t n : {192u, 255u, 256u, 257u, 320u, 511u, 512u, 513u, 1023u, 1024u,
                                1025u, 1549u}) {
      lengths.push_back(n);
    }
    for (const std::size_t len : lengths) {
      const Bytes data = rng.bytes(len);
      Bytes expected(len);
      {
        ScopedKernelTierCap pin(KernelTier::kReference);
        ChaCha20 ref(key, nonce);
        ref.transform(data, expected.data());
      }
      for (const KernelTier cap : kCaps) {
        ScopedKernelTierCap pin(cap);
        ChaCha20 c(key, nonce);
        Bytes out = c.transform(data);
        EXPECT_EQ(out, expected) << "nonce=" << nonce_len << " len=" << len
                                 << " cap=" << tier_name(cap);
        ChaCha20 c2(key, nonce);
        Bytes inplace = data;
        const std::size_t cut = len % 67;
        c2.transform(ByteSpan(inplace.data(), cut), inplace.data());
        c2.transform(ByteSpan(inplace.data() + cut, len - cut), inplace.data() + cut);
        EXPECT_EQ(inplace, expected)
            << "in-place nonce=" << nonce_len << " len=" << len << " cap=" << tier_name(cap);
      }
    }
  }
}

// Counter wrap inside a pass: the IETF variant wraps its 32-bit counter
// word, the legacy variant carries into the high word. Starting k blocks
// before the wrap, k = 1..8, puts the wrap in every lane of an 8-lane
// pass (lane k, or lane 0 of the next pass for k = 8) and in every lane
// of a 4-lane pass.
TEST(WideKernels, ChaChaCounterWrapInsideBatch) {
  Rng rng(0x9f113d);
  const Bytes key = rng.bytes(32);
  struct Case {
    std::size_t nonce_len;
    std::uint64_t wrap;  // first counter value after the wrap or carry
  };
  const Case cases[] = {
      {12, 0x100000000ull},  // IETF: wraps word 12
      {8, 0},                // legacy: 64-bit counter wraps to zero
      {8, 0x100000000ull},   // legacy: low-word carry into word 13
  };
  for (const Case& c : cases) {
    const Bytes nonce = rng.bytes(c.nonce_len);
    const Bytes data = rng.bytes(64 * 17 + 13);
    for (std::uint64_t k = 1; k <= 8; ++k) {
      const std::uint64_t initial = c.wrap - k;
      Bytes expected(data.size());
      {
        ScopedKernelTierCap pin(KernelTier::kReference);
        ChaCha20 ref(key, nonce, initial);
        ref.transform(data, expected.data());
      }
      for (const KernelTier cap : kCaps) {
        ScopedKernelTierCap pin(cap);
        ChaCha20 cc(key, nonce, initial);
        EXPECT_EQ(cc.transform(data), expected)
            << "nonce=" << c.nonce_len << " ctr=" << initial << " cap=" << tier_name(cap);
      }
    }
  }
}

// One stream fed in two pieces, cut one byte either side of every block
// boundary (64k +- 1) and every 8-lane pass boundary (512k +- 1), so the
// second call starts from each possible buffered-keystream offset.
TEST(WideKernels, ChaChaSplitTransformsAtBlockAndPassBoundaries) {
  Rng rng(0x5011c7);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(1549);
  std::vector<std::size_t> cuts;
  for (std::size_t k = 1; 64 * k + 1 <= data.size(); ++k) {
    cuts.push_back(64 * k - 1);
    cuts.push_back(64 * k + 1);
  }
  for (std::size_t k = 1; 512 * k + 1 <= data.size(); ++k) {
    cuts.push_back(512 * k - 1);
    cuts.push_back(512 * k + 1);
  }
  for (const std::size_t nonce_len : {12u, 8u}) {
    const Bytes nonce = rng.bytes(nonce_len);
    Bytes expected(data.size());
    {
      ScopedKernelTierCap pin(KernelTier::kReference);
      ChaCha20 ref(key, nonce);
      ref.transform(data, expected.data());
    }
    for (const KernelTier cap : kCaps) {
      ScopedKernelTierCap pin(cap);
      for (const std::size_t cut : cuts) {
        ChaCha20 c(key, nonce);
        Bytes out(data.size());
        c.transform(ByteSpan(data.data(), cut), out.data());
        c.transform(ByteSpan(data.data() + cut, data.size() - cut), out.data() + cut);
        EXPECT_EQ(out, expected) << "nonce=" << nonce_len << " cut=" << cut
                                 << " cap=" << tier_name(cap);
      }
    }
  }
}

#ifdef GFWSIM_HAVE_X86_SIMD
// The 4-lane SSE2 kernel, called directly: AVX2 hosts dispatch to the
// 8-lane kernel, so no other test reaches it there. Lanes carry their own
// counter words, including an IETF wrap and a legacy carry mid-pass.
TEST(WideKernels, ChaChaSse2KernelMatchesReference) {
  if (!cpu_features().sse2) GTEST_SKIP() << "no SSE2";
  Rng rng(0x55e2);
  const Bytes key = rng.bytes(32);
  for (const std::size_t nonce_len : {12u, 8u}) {
    const Bytes nonce = rng.bytes(nonce_len);
    for (const std::uint64_t initial : {0ull, 0xfffffffeull, 0x1fffffffdull}) {
      std::uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
      for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
      state[14] = load_le32(nonce.data() + nonce_len - 8);
      state[15] = load_le32(nonce.data() + nonce_len - 4);
      std::uint32_t w12[4], w13[4];
      for (std::uint32_t l = 0; l < 4; ++l) {
        const std::uint64_t counter = initial + l;
        w12[l] = static_cast<std::uint32_t>(counter);
        w13[l] = nonce_len == 12 ? load_le32(nonce.data())
                                 : static_cast<std::uint32_t>(counter >> 32);
      }
      std::uint8_t out[256];
      simd::chacha20_blocks4_sse2(state, w12, w13, out);
      Bytes expected(256);
      {
        ScopedKernelTierCap pin(KernelTier::kReference);
        ChaCha20 ref(key, nonce, initial);
        expected = ref.transform(Bytes(256, 0));
      }
      EXPECT_EQ(Bytes(out, out + 256), expected)
          << "nonce=" << nonce_len << " ctr=" << initial;
    }
  }
}
#endif

// ---- Poly1305 -------------------------------------------------------------

// Radix-2^44 tags (two blocks per step against r^2) vs the 26-bit
// per-block reference at every length 0..2048, one-shot and in three
// updates cut mid-block, so the 2-block loop starts from every buffered
// state and ends on every odd/even block count.
TEST(WideKernels, Poly1305BatchAllTailLengths) {
  Rng rng(0x77ac21);
  const Bytes key = rng.bytes(32);
  const Bytes all = rng.bytes(2048);
  for (std::size_t len = 0; len <= 2048; ++len) {
    const ByteSpan data(all.data(), len);
    Poly1305::Tag expected;
    {
      ScopedKernelTierCap pin(KernelTier::kReference);
      expected = Poly1305::mac(key, data);
    }
    for (const KernelTier cap : kCaps) {
      ScopedKernelTierCap pin(cap);
      EXPECT_EQ(Poly1305::mac(key, data), expected)
          << "len=" << len << " cap=" << tier_name(cap);
      Poly1305 p(key);
      const std::size_t cut1 = len % 37;
      const std::size_t cut2 = cut1 + (len - cut1) / 2;
      p.update(data.subspan(0, cut1));
      p.update(data.subspan(cut1, cut2 - cut1));
      p.update(data.subspan(cut2));
      EXPECT_EQ(p.finish(), expected) << "split len=" << len << " cap=" << tier_name(cap);
    }
  }
}

// Inputs that drive the accumulator to its limits: the largest clamped r,
// an all-0xff s (the tag addition carries out of every byte), and
// all-0xff or all-zero messages at every length up to 32 blocks (runs of
// 16 blocks and more take the simd tier's vector kernel). With
// r = 1, two all-0xff blocks leave h = 2 * (2^129 - 1) = 2^130 - 2, in
// [p, 2^130), so the final reduction must fold h back below p.
TEST(WideKernels, Poly1305AdversarialAccumulator) {
  Bytes r_one(32, 0xff);
  r_one[0] = 0x01;
  std::fill(r_one.begin() + 1, r_one.begin() + 16, 0x00);
  for (const Bytes& key : {Bytes(32, 0xff), r_one}) {
    for (const std::uint8_t fill : {0xffu, 0x00u}) {
      for (std::size_t len = 0; len <= 512; ++len) {
        const Bytes data(len, fill);
        Poly1305::Tag expected;
        {
          ScopedKernelTierCap pin(KernelTier::kReference);
          expected = Poly1305::mac(key, data);
        }
        for (const KernelTier cap : kCaps) {
          ScopedKernelTierCap pin(cap);
          EXPECT_EQ(Poly1305::mac(key, data), expected)
              << "r0=" << int{key[0]} << " fill=" << int{fill} << " len=" << len
              << " cap=" << tier_name(cap);
        }
      }
    }
  }
  // h = 2^130 - 2 reduces to 3; plus s = 2^128 - 1 gives 2 mod 2^128.
  for (const KernelTier cap : kCaps) {
    ScopedKernelTierCap pin(cap);
    const auto tag = Poly1305::mac(r_one, Bytes(32, 0xff));
    EXPECT_EQ(hex_encode(ByteSpan(tag.data(), tag.size())), "02" + std::string(30, '0'))
        << "cap=" << tier_name(cap);
  }
}

// RFC 8439 Appendix A.3 vectors whose inputs are short enough to
// transcribe exactly. Each must pass on the reference tier before it is
// checked on the others, so a transcription slip fails loudly instead of
// pinning a wrong tag.
TEST(WideKernels, Poly1305Rfc8439AppendixA3) {
  const auto unhex = [](std::string_view s) { return *hex_decode(s); };
  const std::string ff16(32, 'f');
  struct Vector {
    int number;
    std::string key, msg, tag;
  };
  const Vector vectors[] = {
      {1, std::string(64, '0'), std::string(128, '0'), std::string(32, '0')},
      {5, "02" + std::string(62, '0'), ff16, "03" + std::string(30, '0')},
      {6, "02" + std::string(30, '0') + ff16, "02" + std::string(30, '0'),
       "03" + std::string(30, '0')},
      {7, "01" + std::string(62, '0'),
       ff16 + "f0" + std::string(30, 'f') + "11" + std::string(30, '0'),
       "05" + std::string(30, '0')},
      {8, "01" + std::string(62, '0'),
       ff16 + "fb" + [] {
         std::string fe;
         for (int i = 0; i < 15; ++i) fe += "fe";
         return fe;
       }() + [] {
         std::string ones;
         for (int i = 0; i < 16; ++i) ones += "01";
         return ones;
       }(),
       std::string(32, '0')},
      {9, "02" + std::string(62, '0'), "fd" + std::string(30, 'f'),
       "fa" + std::string(30, 'f')},
      {10, "0100000000000000" "0400000000000000" + std::string(32, '0'),
       "e33594d7505e43b9" "0000000000000000" "3394d7505e4379cd" "0100000000000000"
       + std::string(32, '0') + "01" + std::string(30, '0'),
       "1400000000000000" "5500000000000000"},
      {11, "0100000000000000" "0400000000000000" + std::string(32, '0'),
       "e33594d7505e43b9" "0000000000000000" "3394d7505e4379cd" "0100000000000000"
       + std::string(32, '0'),
       "1300000000000000" "0000000000000000"},
  };
  for (const Vector& v : vectors) {
    const Bytes key = unhex(v.key);
    const Bytes msg = unhex(v.msg);
    ASSERT_EQ(key.size(), 32u) << "vector " << v.number;
    {
      ScopedKernelTierCap pin(KernelTier::kReference);
      const auto tag = Poly1305::mac(key, msg);
      ASSERT_EQ(hex_encode(ByteSpan(tag.data(), tag.size())), v.tag)
          << "reference tier, vector " << v.number;
    }
    for (const KernelTier cap : kCaps) {
      ScopedKernelTierCap pin(cap);
      const auto tag = Poly1305::mac(key, msg);
      EXPECT_EQ(hex_encode(ByteSpan(tag.data(), tag.size())), v.tag)
          << "vector " << v.number << " cap=" << tier_name(cap);
    }
  }
}

// ---- GHASH / AES-GCM ------------------------------------------------------

// ghash() (quad-fold table / PCLMUL tiers) against ghash_reference()
// (bit-by-bit multiply) at every aad/ct length combination that crosses
// the 64-, 32-, and 16-byte chunk paths. The tier is fixed when the
// object is built, so each cap gets its own object.
TEST(WideKernels, GhashAllChunkPaths) {
  Rng rng(0x5eef3a);
  const Bytes key = rng.bytes(32);
  for (const KernelTier cap : kCaps) {
    ScopedKernelTierCap pin(cap);
    const AesGcm gcm(key);
    ASSERT_EQ(gcm.ghash_tier(), ghash_dispatch_tier());
    for (std::size_t ct_len = 0; ct_len <= 129; ++ct_len) {
      const Bytes aad = rng.bytes(ct_len % 23);
      const Bytes ct = rng.bytes(ct_len);
      EXPECT_EQ(gcm.ghash(aad, ct), gcm.ghash_reference(aad, ct))
          << "ct_len=" << ct_len << " cap=" << tier_name(cap);
    }
  }
}

// The SIMD tier folds 1-3 block tails (and the length block) as
// zero-prefixed four-block folds: every aad and ciphertext length pair
// 0..129 lands each tail size in both sections. Lowering the cap after
// construction must not move the object off its tier.
TEST(WideKernels, GhashSimdTailsEveryLength) {
  Rng rng(0x7a11);
  std::optional<AesGcm> gcm;
  {
    ScopedKernelTierCap pin(KernelTier::kSimd);
    gcm.emplace(rng.bytes(16));
  }
  ScopedKernelTierCap pin(KernelTier::kReference);
  EXPECT_EQ(gcm->ghash_tier(), cpu_features().pclmul ? KernelTier::kSimd : KernelTier::kPortable);
  const Bytes data = rng.bytes(2 * 129);
  for (std::size_t aad_len = 0; aad_len <= 129; ++aad_len) {
    for (std::size_t ct_len = 0; ct_len <= 129; ++ct_len) {
      const ByteSpan aad(data.data(), aad_len);
      const ByteSpan ct(data.data() + 129, ct_len);
      ASSERT_EQ(gcm->ghash(aad, ct), gcm->ghash_reference(aad, ct))
          << "aad_len=" << aad_len << " ct_len=" << ct_len;
    }
  }
}

// Full seal/open across tiers: an object built under each cap must seal
// the reference tier's exact bytes, and open must round-trip and reject
// a corrupted tag. Lengths cross the 128-byte fused loop, its 8-block CTR
// tail, and partial final blocks.
TEST(WideKernels, GcmSealOpenCrossTier) {
  Rng rng(0x81d2c7);
  for (const std::size_t key_len : {16u, 32u}) {
    const Bytes key = rng.bytes(key_len);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 129; ++n) lengths.push_back(n);
    for (const std::size_t n : {255u, 256u, 257u, 1024u, 1339u}) lengths.push_back(n);
    for (const std::size_t len : lengths) {
      const Bytes nonce = rng.bytes(AesGcm::kNonceSize);
      const Bytes aad = rng.bytes(len % 19);
      const Bytes pt = rng.bytes(len);
      Bytes expected;
      {
        ScopedKernelTierCap pin(KernelTier::kReference);
        expected = AesGcm(key).seal(nonce, pt, aad);
      }
      for (const KernelTier cap : kCaps) {
        ScopedKernelTierCap pin(cap);
        const AesGcm gcm(key);
        const Bytes sealed = gcm.seal(nonce, pt, aad);
        ASSERT_EQ(sealed, expected) << "len=" << len << " key=" << key_len
                                    << " cap=" << tier_name(cap);
        const auto opened = gcm.open(nonce, sealed, aad);
        ASSERT_TRUE(opened.has_value());
        EXPECT_EQ(*opened, pt);
        if (!sealed.empty()) {
          Bytes bad = sealed;
          bad.back() ^= 0x01;
          EXPECT_FALSE(gcm.open(nonce, bad, aad).has_value());
        }
      }
    }
  }
}

// ChaCha20-Poly1305 AEAD across tiers (exercises the wide keystream, with
// the Poly1305 key block taken from the same pass, and the radix-2^44
// Poly1305 together through the RFC 8439 construction).
TEST(WideKernels, ChaChaPolySealOpenCrossTier) {
  Rng rng(0x2c6d90);
  const ChaCha20Poly1305 aead(rng.bytes(32));
  for (const std::size_t len : {0u, 1u, 2u, 63u, 64u, 65u, 129u, 256u, 257u, 447u, 448u, 449u,
                                1024u, 1549u}) {
    const Bytes nonce = rng.bytes(ChaCha20Poly1305::kNonceSize);
    const Bytes aad = rng.bytes(len % 13);
    const Bytes pt = rng.bytes(len);
    Bytes expected;
    {
      ScopedKernelTierCap pin(KernelTier::kReference);
      expected = aead.seal(nonce, pt, aad);
    }
    for (const KernelTier cap : kCaps) {
      ScopedKernelTierCap pin(cap);
      const Bytes sealed = aead.seal(nonce, pt, aad);
      ASSERT_EQ(sealed, expected) << "len=" << len << " cap=" << tier_name(cap);
      const auto opened = aead.open(nonce, sealed, aad);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, pt);
    }
  }
}

// ---- Per-tier SHA-1 and Poly1305 -------------------------------------------

std::string tier_param_name(const ::testing::TestParamInfo<KernelTier>& info) {
  return tier_name(info.param);
}

// Pins the parameter's tier for the whole test. The simd instance skips,
// naming the feature, where the host or build lacks the kernel: capping
// at kSimd there would quietly re-test the portable tier.
class PinnedTier : public ::testing::TestWithParam<KernelTier> {
 protected:
  void pin(KernelTier (*dispatch)(), bool have_simd, const char* feature) {
    if (GetParam() == KernelTier::kSimd && !have_simd) {
      GTEST_SKIP() << "no " << feature << " on this host or build";
    }
    pin_.emplace(GetParam());
    ASSERT_EQ(dispatch(), GetParam());
  }

 private:
  std::optional<ScopedKernelTierCap> pin_;
};

class Sha1Tier : public PinnedTier {
 protected:
  void SetUp() override { pin(sha1_dispatch_tier, cpu_features().sha, "sha (SHA-NI)"); }
};

class Poly1305Tier : public PinnedTier {
 protected:
  void SetUp() override { pin(poly1305_dispatch_tier, cpu_features().avx2, "avx2"); }
};

INSTANTIATE_TEST_SUITE_P(AllTiers, Sha1Tier,
                         ::testing::Values(KernelTier::kReference, KernelTier::kPortable,
                                           KernelTier::kSimd),
                         tier_param_name);
INSTANTIATE_TEST_SUITE_P(AllTiers, Poly1305Tier,
                         ::testing::Values(KernelTier::kReference, KernelTier::kPortable,
                                           KernelTier::kSimd),
                         tier_param_name);

std::string sha1_hex(ByteSpan data) { return hex_encode(sha1(data)); }

TEST_P(Sha1Tier, Fips180VectorsAndMillionA) {
  EXPECT_EQ(sha1_hex(to_bytes("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1_hex(to_bytes("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(to_bytes(chunk));
  EXPECT_EQ(hex_encode(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// Every length 0..1024 against the scalar kernel, one-shot and split in
// two: at every cut for messages up to 200 bytes, at random cuts (and a
// three-way split) beyond. Messages from 128 bytes up hand the kernel
// runs of two and more whole blocks in one call.
TEST_P(Sha1Tier, EveryLengthOneShotAndSplit) {
  Rng rng(0x5ba1c7);
  const Bytes all = rng.bytes(1024);
  for (std::size_t len = 0; len <= 1024; ++len) {
    const ByteSpan data(all.data(), len);
    Sha1::Digest expected;
    {
      ScopedKernelTierCap scalar(KernelTier::kPortable);
      expected = Sha1::hash(data);
    }
    ASSERT_EQ(Sha1::hash(data), expected) << "len=" << len;
    const auto split = [&](std::size_t cut1, std::size_t cut2) {
      Sha1 h;
      h.update(data.subspan(0, cut1));
      h.update(data.subspan(cut1, cut2 - cut1));
      h.update(data.subspan(cut2));
      return h.finish();
    };
    if (len <= 200) {
      for (std::size_t cut = 0; cut <= len; ++cut) {
        ASSERT_EQ(split(cut, cut), expected) << "len=" << len << " cut=" << cut;
      }
    } else {
      for (int trial = 0; trial < 4; ++trial) {
        const std::size_t cut1 = rng.next_u64() % (len + 1);
        const std::size_t cut2 = cut1 + rng.next_u64() % (len - cut1 + 1);
        ASSERT_EQ(split(cut1, cut1), expected) << "len=" << len << " cut=" << cut1;
        ASSERT_EQ(split(cut1, cut2), expected)
            << "len=" << len << " cuts=" << cut1 << "," << cut2;
      }
    }
  }
}

TEST_P(Sha1Tier, HmacRfc2202AndHkdfRfc5869Case4) {
  const auto hex = [](const auto& d) { return hex_encode(ByteSpan(d.data(), d.size())); };
  EXPECT_EQ(hex(Hmac<Sha1>::mac(Bytes(20, 0x0b), to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(hex(Hmac<Sha1>::mac(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  // Case 6: an 80-byte key, hashed first.
  EXPECT_EQ(hex(Hmac<Sha1>::mac(Bytes(80, 0xaa),
                                to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");

  const Bytes ikm(11, 0x0b);
  const Bytes salt = *hex_decode("000102030405060708090a0b0c");
  const Bytes info = *hex_decode("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(hex_encode(hkdf_extract<Sha1>(salt, ikm)), "9b6c18c432a7bf8f0e71c8eb88f4b30baa2ba243");
  EXPECT_EQ(hex_encode(hkdf<Sha1>(ikm, salt, info, 42)),
            "085a01ea1b10f36933068b56efa5ad81a4f14b822f5b091568a9cdd4f155fda2"
            "c22e422478d305f3f896");
}

// The reference tier's tag for `data` under `key`.
Poly1305::Tag reference_tag(ByteSpan key, ByteSpan data) {
  ScopedKernelTierCap pin(KernelTier::kReference);
  return Poly1305::mac(key, data);
}

// Lengths on both sides of the 16-block run where the simd tier switches
// to the vector kernel, and of 4 KiB, one-shot.
TEST_P(Poly1305Tier, LengthsAroundTheVectorThreshold) {
  Rng rng(0x9017e5);
  const Bytes key = rng.bytes(32);
  const Bytes all = rng.bytes(4097);
  std::vector<std::size_t> lengths = {4095, 4096, 4097};
  for (const std::size_t blocks : {15u, 16u, 17u, 18u, 19u, 20u}) {
    for (const std::size_t extra : {0u, 1u, 15u}) lengths.push_back(16 * blocks + extra);
    lengths.push_back(16 * blocks - 1);
  }
  for (const std::size_t len : lengths) {
    const ByteSpan data(all.data(), len);
    EXPECT_EQ(Poly1305::mac(key, data), reference_tag(key, data)) << "len=" << len;
  }
}

// A 40-block message (plus a partial block) in two updates cut at every
// block offset, and 5 bytes past it: each cut ends one run and starts the
// next at a different point of the four-lane grouping, and both runs may
// be long enough for the vector kernel (the second reuses r^2..r^4).
TEST_P(Poly1305Tier, RunBoundaryAtEveryBlockOffset) {
  Rng rng(0x3b0c11);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(40 * 16 + 7);
  const Poly1305::Tag expected = reference_tag(key, data);
  for (std::size_t block = 0; block <= 40; ++block) {
    for (const std::size_t skew : {0u, 5u}) {
      const std::size_t cut = 16 * block + skew;
      Poly1305 p(key);
      p.update(ByteSpan(data).subspan(0, cut));
      p.update(ByteSpan(data).subspan(cut));
      EXPECT_EQ(p.finish(), expected) << "cut=" << cut;
    }
  }
}

// The largest clamped r (every limb at its clamp ceiling) drives the
// lazily carried 26-bit lanes closest to their 64-bit headroom; all-0xff
// messages keep every message limb full too.
TEST_P(Poly1305Tier, AllOnesClampedR) {
  Rng rng(0x0ff1ce);
  const Bytes key(32, 0xff);
  for (const std::size_t len : {255u, 256u, 257u, 511u, 1024u, 1500u, 4096u}) {
    for (const Bytes& data : {Bytes(len, 0xff), rng.bytes(len)}) {
      EXPECT_EQ(Poly1305::mac(key, data), reference_tag(key, data)) << "len=" << len;
    }
  }
}

}  // namespace
}  // namespace gfwsim::crypto
