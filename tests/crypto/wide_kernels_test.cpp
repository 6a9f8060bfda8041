// Edge-case sweeps for the batched wide kernels behind the tier-dispatch
// harness: AES-NI/GCM, 4-, 8- and 16-lane ChaCha20, radix-2^44, 4-way
// AVX2 and 8-way IFMA Poly1305, SHA-NI SHA-1.
//
// Every test pins the kernel-tier cap (ScopedKernelTierCap) and checks
// the portable-batched and SIMD tiers byte-for-byte against the
// reference tier at every lane occupancy the batch loops can see
// (1..8 AES blocks per aes_encrypt_blocks call, 1..16 ChaCha states per
// 256-, 512- or 1024-byte pass), every tail length 0..129 bytes,
// unaligned buffers, in-place and split transforms, and counter wrap in
// every lane for both ChaCha variants. On
// hosts without the SIMD extensions the kSimd cap degrades to the
// portable tier, so the sweeps still pass (they just cross-check
// portable against reference twice). The per-tier SHA-1 and Poly1305
// suites pin one tier each instead, and skip the simd tier on a host
// without the feature it needs; the per-kernel ChaCha20 and Poly1305
// suites call every compiled vector kernel directly, since a host
// dispatches to only some of them, and skip those the host lacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

#ifdef GFWSIM_HAVE_X86_SIMD
namespace simd {
// Names a pass kernel the same way (AllPassKernels/*).
void PrintTo(const ChaChaPassKernel& kernel, std::ostream* os) { *os << kernel.name; }
}  // namespace simd
#endif

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
// before the wrap, k = 1..16, puts the wrap in every lane of a 16-lane
// pass (lane k, or lane 0 of the next pass for k = 16) and in every lane
// of an 8- or 4-lane pass.
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
    for (std::uint64_t k = 1; k <= 16; ++k) {
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
// boundary (64k +- 1) and every 4-, 8- and 16-lane pass boundary (256k,
// 512k, 1024k +- 1), so the second call starts from each possible
// buffered-keystream offset.
TEST(WideKernels, ChaChaSplitTransformsAtBlockAndPassBoundaries) {
  Rng rng(0x5011c7);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(1549);
  std::vector<std::size_t> cuts;
  for (std::size_t k = 1; 64 * k + 1 <= data.size(); ++k) {
    cuts.push_back(64 * k - 1);
    cuts.push_back(64 * k + 1);
  }
  for (const std::size_t pass : {256u, 512u, 1024u}) {
    for (std::size_t k = 1; pass * k + 1 <= data.size(); ++k) {
      cuts.push_back(pass * k - 1);
      cuts.push_back(pass * k + 1);
    }
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
// Every compiled pass kernel, called directly: a host dispatches to only
// some of them (an AVX-512 host to none of the SSE2 and AVX2 ones), so no
// other test reaches the rest there. Lanes carry their own counter
// words; the starting counters put an IETF wrap and a legacy carry
// mid-pass at every width. A kernel whose feature the host lacks skips,
// naming it.
class ChaChaPassKernelTest : public ::testing::TestWithParam<simd::ChaChaPassKernel> {};

TEST_P(ChaChaPassKernelTest, MatchesReference) {
  const simd::ChaChaPassKernel& kernel = GetParam();
  if (!(cpu_features().*kernel.have)) GTEST_SKIP() << "no " << kernel.feature;
  const std::size_t bytes = 64 * kernel.lanes;
  Rng rng(0x55e2);
  const Bytes key = rng.bytes(32);
  for (const std::size_t nonce_len : {12u, 8u}) {
    const Bytes nonce = rng.bytes(nonce_len);
    for (const std::uint64_t initial : {0ull, 0xfffffffeull, 0x1fffffffdull, 0xfffffff1ull}) {
      std::uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
      for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
      state[14] = load_le32(nonce.data() + nonce_len - 8);
      state[15] = load_le32(nonce.data() + nonce_len - 4);
      std::uint32_t w12[16], w13[16];
      for (std::uint32_t l = 0; l < kernel.lanes; ++l) {
        const std::uint64_t counter = initial + l;
        w12[l] = static_cast<std::uint32_t>(counter);
        w13[l] = nonce_len == 12 ? load_le32(nonce.data())
                                 : static_cast<std::uint32_t>(counter >> 32);
      }
      std::vector<std::uint8_t> out(bytes + 1, 0xa5);
      kernel.pass(state, w12, w13, out.data());
      EXPECT_EQ(out[bytes], 0xa5) << "wrote past " << bytes << " bytes";
      out.pop_back();
      Bytes expected;
      {
        ScopedKernelTierCap pin(KernelTier::kReference);
        ChaCha20 ref(key, nonce, initial);
        expected = ref.transform(Bytes(bytes, 0));
      }
      EXPECT_EQ(out, expected) << "nonce=" << nonce_len << " ctr=" << initial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPassKernels, ChaChaPassKernelTest,
                         ::testing::ValuesIn(simd::kChaChaPassKernels),
                         [](const ::testing::TestParamInfo<simd::ChaChaPassKernel>& info) {
                           return std::string(info.param.name);
                         });
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

// Seal and open at every plaintext length 0..1100 against the reference
// tier. A seal's keystream is 64 + length bytes, so on AVX-512 the first
// pass widens from 4 to 8 to 16 lanes past lengths 192, 448 and 960, and
// a second pass follows past 960. At each of those changes a flipped tag
// bit and a flipped ciphertext bit must fail to open, without writing.
TEST(WideKernels, ChaChaPolyEveryLengthAcrossPassWidths) {
  Rng rng(0x6e77a1);
  const ChaCha20Poly1305 aead(rng.bytes(32));
  const Bytes all = rng.bytes(1100);
  const std::vector<std::size_t> widths = {192, 193, 448, 449, 960, 961};
  for (std::size_t len = 0; len <= 1100; ++len) {
    const Bytes nonce = rng.bytes(ChaCha20Poly1305::kNonceSize);
    const Bytes aad = rng.bytes(len % 13);
    const ByteSpan pt(all.data(), len);
    Bytes expected;
    {
      ScopedKernelTierCap pin(KernelTier::kReference);
      expected = aead.seal(nonce, pt, aad);
    }
    ScopedKernelTierCap pin(KernelTier::kSimd);
    const Bytes sealed = aead.seal(nonce, pt, aad);
    ASSERT_EQ(sealed, expected) << "len=" << len;
    const auto opened = aead.open(nonce, sealed, aad);
    ASSERT_TRUE(opened.has_value()) << "len=" << len;
    ASSERT_EQ(*opened, Bytes(pt.begin(), pt.end())) << "len=" << len;
    if (std::find(widths.begin(), widths.end(), len) == widths.end()) continue;
    for (const std::size_t at : {sealed.size() - 1, std::size_t{0}}) {
      Bytes bad = sealed;
      bad[at] ^= 0x01;
      Bytes out(len, 0x5a);
      EXPECT_FALSE(aead.open_into(nonce, bad, out.data(), aad)) << "len=" << len << " at=" << at;
      EXPECT_EQ(out, Bytes(len, 0x5a)) << "len=" << len << " at=" << at;
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

#ifdef GFWSIM_HAVE_X86_SIMD
// ---- Poly1305 vector kernels, called directly -------------------------------

// A value mod p = 2^130 - 5 in 26-bit limbs, with the arithmetic of the
// per-block reference: the oracle the vector kernels are checked against.
using Limbs26 = std::array<std::uint64_t, 5>;
constexpr std::uint64_t kM26 = 0x3ffffff;

// Carries and subtracts p, leaving the unique value below p.
Limbs26 canonical(Limbs26 a) {
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 4; ++i) {
      a[i + 1] += a[i] >> 26;
      a[i] &= kM26;
    }
    a[0] += (a[4] >> 26) * 5;
    a[4] &= kM26;
  }
  Limbs26 g = a;
  g[0] += 5;
  for (int i = 0; i < 4; ++i) {
    g[i + 1] += g[i] >> 26;
    g[i] &= kM26;
  }
  if (g[4] >> 26) {  // a + 5 >= 2^130, so a >= p: take a - p
    g[4] &= kM26;
    return g;
  }
  return a;
}

Limbs26 mul_mod(const Limbs26& a, const Limbs26& b) {
  Limbs26 d{};
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const std::uint64_t p = a[i] * b[j];
      if (i + j < 5) {
        d[i + j] += p;
      } else {
        d[i + j - 5] += 5 * p;  // 2^130 = 5 mod p
      }
    }
  }
  return canonical(d);  // columns stay under 25 * 5 * 2^52
}

// h = (h + block with the 2^128 pad bit) * r, one block at a time.
Limbs26 horner(Limbs26 h, const Limbs26& r, const std::uint8_t* blocks, std::size_t n) {
  for (std::size_t b = 0; b < n; ++b, blocks += 16) {
    const std::uint64_t lo = load_le64(blocks), hi = load_le64(blocks + 8);
    h[0] += lo & kM26;
    h[1] += (lo >> 26) & kM26;
    h[2] += ((lo >> 52) | (hi << 12)) & kM26;
    h[3] += (hi >> 14) & kM26;
    h[4] += (hi >> 40) | (1u << 24);
    h = mul_mod(h, r);
  }
  return h;
}

// Canonical value <-> radix 2^44 (44/44/42 bits); the way back accepts
// the kernel's partly carried limbs.
std::array<std::uint64_t, 3> to44(const Limbs26& c) {
  __extension__ typedef unsigned __int128 u128;
  u128 v = 0;
  for (int i = 4; i >= 0; --i) v = (v << 26) | c[i];  // drops bits 128, 129
  return {static_cast<std::uint64_t>(v) & 0xfffffffffff,
          static_cast<std::uint64_t>(v >> 44) & 0xfffffffffff,
          static_cast<std::uint64_t>(v >> 88) | (c[4] >> 24 << 40)};
}
Limbs26 from44(const std::uint64_t h[3]) {
  Limbs26 out{};
  for (int limb = 0; limb < 3; ++limb) {
    for (int at = 0; at < 64; ++at) {
      if (!(h[limb] >> at & 1)) continue;
      int bit = 44 * limb + at;
      std::uint64_t weight = 1;
      if (bit >= 130) {  // 2^130 = 5 mod p
        bit -= 130;
        weight = 5;
      }
      out[bit / 26] += weight << (bit % 26);
    }
  }
  return canonical(out);
}

// One vector kernel behind a common interface: absorbs n blocks into the
// canonical h with r^1..r^8 (canonical) and returns h canonicalized.
struct Poly1305Kernel {
  const char* name;
  std::size_t lanes;  // n must be a multiple of this
  bool CpuFeatures::*have;
  const char* feature;
  Limbs26 (*run)(const Limbs26& h, const std::array<Limbs26, 8>& rpow,
                 const std::uint8_t* blocks, std::size_t n);
};

Limbs26 run_avx2(const Limbs26& h, const std::array<Limbs26, 8>& rpow,
                 const std::uint8_t* blocks, std::size_t n) {
  std::uint32_t h26[5], r26[4][5];
  for (int i = 0; i < 5; ++i) {
    h26[i] = static_cast<std::uint32_t>(h[i]);
    for (int k = 0; k < 4; ++k) r26[k][i] = static_cast<std::uint32_t>(rpow[k][i]);
  }
  simd::poly1305_blocks_avx2(h26, r26, blocks, n);
  return canonical({h26[0], h26[1], h26[2], h26[3], h26[4]});
}

Limbs26 run_ifma(const Limbs26& h, const std::array<Limbs26, 8>& rpow,
                 const std::uint8_t* blocks, std::size_t n) {
  std::uint64_t h44[3], r44[8][3];
  const auto hv = to44(h);
  std::copy(hv.begin(), hv.end(), h44);
  for (int k = 0; k < 8; ++k) {
    const auto rv = to44(rpow[k]);
    std::copy(rv.begin(), rv.end(), r44[k]);
  }
  simd::poly1305_blocks_ifma(h44, r44, blocks, n);
  return from44(h44);
}

constexpr Poly1305Kernel kPoly1305Kernels[] = {
    {"avx2", 4, &CpuFeatures::avx2, "avx2", run_avx2},
    {"ifma", 8, &CpuFeatures::ifma, "ifma (AVX-512 IFMA)", run_ifma},
};

void PrintTo(const Poly1305Kernel& kernel, std::ostream* os) { *os << kernel.name; }

class Poly1305KernelTest : public ::testing::TestWithParam<Poly1305Kernel> {};

// Every run length the kernel takes from 16 to 300 blocks, under a random
// r and the all-ones clamped r, with random and all-0xff blocks, starting
// from h = 0, a random h, and h at and just below p - 1 (the largest
// canonical accumulators), against the per-block 26-bit Horner loop.
TEST_P(Poly1305KernelTest, MatchesPerBlockReference) {
  const Poly1305Kernel& kernel = GetParam();
  if (!(cpu_features().*kernel.have)) GTEST_SKIP() << "no " << kernel.feature;
  Rng rng(0x1f3a);
  const auto clamp = [](const Bytes& key) {
    std::uint8_t k[16];
    std::memcpy(k, key.data(), 16);
    for (const int i : {3, 7, 11, 15}) k[i] &= 0x0f;
    for (const int i : {4, 8, 12}) k[i] &= 0xfc;
    const std::uint64_t lo = load_le64(k), hi = load_le64(k + 8);
    return Limbs26{lo & kM26, (lo >> 26) & kM26, ((lo >> 52) | (hi << 12)) & kM26,
                   (hi >> 14) & kM26, hi >> 40};
  };
  const Limbs26 p_minus_1 = {kM26 - 5, kM26, kM26, kM26, kM26};
  const Limbs26 p_minus_2_26 = {kM26 - 5, kM26 - 1, kM26, kM26, kM26};
  const Bytes random_blocks = rng.bytes(16 * 300);
  const Bytes ones(16 * 300, 0xff);
  for (const Bytes& key : {rng.bytes(32), Bytes(32, 0xff)}) {
    std::array<Limbs26, 8> rpow;
    rpow[0] = clamp(key);
    for (int k = 1; k < 8; ++k) rpow[k] = mul_mod(rpow[k - 1], rpow[0]);
    const Limbs26 random_h = canonical(
        {rng.next_u64() & kM26, rng.next_u64() & kM26, rng.next_u64() & kM26,
         rng.next_u64() & kM26, rng.next_u64() & kM26});
    for (const Limbs26& h : {Limbs26{}, random_h, p_minus_1, p_minus_2_26}) {
      for (const Bytes* blocks : {&random_blocks, &ones}) {
        for (std::size_t n = 16; n <= 300; n += kernel.lanes) {
          ASSERT_EQ(kernel.run(h, rpow, blocks->data(), n),
                    horner(h, rpow[0], blocks->data(), n))
              << "r0=" << int{key[0]} << " h0=" << h[0] << " ones=" << (blocks == &ones)
              << " n=" << n;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVectorKernels, Poly1305KernelTest,
                         ::testing::ValuesIn(kPoly1305Kernels),
                         [](const ::testing::TestParamInfo<Poly1305Kernel>& info) {
                           return std::string(info.param.name);
                         });
#endif

}  // namespace
}  // namespace gfwsim::crypto
