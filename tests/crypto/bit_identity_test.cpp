// Bit-identity tests for the crypto paths that were rewritten for speed:
// batched CFB decryption and word-wise CFB encryption, the word-wise AES
// key schedule, GCM's H powers on the fast tiers, the memoized entropy
// sum, and RC4's key schedule. Each is checked against a plain oracle
// kept in this file, so the tests still hold if the production code is
// rewritten again.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "crypto/aes.h"
#include "crypto/bytes.h"
#include "crypto/cpu.h"
#include "crypto/entropy.h"
#include "crypto/gcm.h"
#include "crypto/rc4.h"
#include "crypto/rng.h"

namespace gfwsim::crypto {
namespace {

Bytes unhex(std::string_view s) {
  auto v = hex_decode(s);
  EXPECT_TRUE(v.has_value()) << s;
  return *v;
}

// ---- CFB ------------------------------------------------------------------

// One-shot byte-wise CFB128 over the reference block kernel.
Bytes cfb_reference(const Aes& aes, ByteSpan iv, ByteSpan in, bool encrypt) {
  Aes::Block reg{};
  std::memcpy(reg.data(), iv.data(), Aes::kBlockSize);
  Bytes out(in.size());
  Aes::Block ks{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::size_t j = i % Aes::kBlockSize;
    if (j == 0) ks = aes.encrypt_block_reference(reg);
    out[i] = in[i] ^ ks[j];
    reg[j] = encrypt ? out[i] : in[i];
  }
  return out;
}

// Runs `cfb` over `in` in calls of the given lengths (the last call takes
// the rest), in place or into a separate buffer.
Bytes cfb_in_calls(AesCfb cfb, ByteSpan in, const std::vector<std::size_t>& calls,
                   bool encrypt, bool in_place) {
  Bytes out(in.begin(), in.end());
  Bytes src(in.begin(), in.end());
  std::size_t off = 0;
  for (std::size_t k = 0; off < in.size(); ++k) {
    const std::size_t len = k < calls.size() ? std::min(calls[k], in.size() - off)
                                             : in.size() - off;
    const ByteSpan part(in_place ? out.data() + off : src.data() + off, len);
    if (encrypt) {
      cfb.encrypt(part, out.data() + off);
    } else {
      cfb.decrypt(part, out.data() + off);
    }
    off += len;
  }
  return out;
}

TEST(CfbBitIdentity, EverySplitMatchesByteWiseReference) {
  Rng rng(0xcfb);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    const Bytes key = rng.bytes(key_len);
    const Bytes iv = rng.bytes(16);
    const Aes aes(key);
    // 21 blocks and 5 bytes: whatever the first call takes, the rest
    // holds a run of 8 or more whole blocks and a partial one.
    const Bytes msg = rng.bytes(16 * 21 + 5);
    for (const bool encrypt : {true, false}) {
      const Bytes want = cfb_reference(aes, iv, msg, encrypt);
      for (const bool in_place : {false, true}) {
        for (std::size_t split = 1; split <= 40; ++split) {
          SCOPED_TRACE(testing::Message() << "AES-" << 8 * key_len << (encrypt ? " enc" : " dec")
                                          << (in_place ? " in place" : "") << " split " << split);
          // One boundary, then the long rest.
          EXPECT_EQ(cfb_in_calls(AesCfb(key, iv), msg, {split}, encrypt, in_place), want);
          // Every call `split` bytes long.
          const std::vector<std::size_t> chunks(msg.size() / split + 1, split);
          EXPECT_EQ(cfb_in_calls(AesCfb(key, iv), msg, chunks, encrypt, in_place), want);
          // A boundary, a run of exactly 8 + split % 5 blocks, the rest.
          EXPECT_EQ(cfb_in_calls(AesCfb(key, iv), msg, {split, 16 * (8 + split % 5)}, encrypt,
                                 in_place),
                    want);
        }
      }
    }
  }
}

// ---- AES key schedule -------------------------------------------------------

// The AES S-box from its definition (the inverse in GF(2^8), then the
// affine map), so the oracle shares no table with the code under test.
std::array<std::uint8_t, 256> make_sbox() {
  const auto gf_mul = [](std::uint8_t a, std::uint8_t b) {
    std::uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
      if (b & 1) p ^= a;
      a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
      b >>= 1;
    }
    return p;
  };
  std::array<std::uint8_t, 256> sbox{};
  for (int x = 0; x < 256; ++x) {
    std::uint8_t inv = 0;
    for (int c = 1; x != 0 && c < 256; ++c) {
      if (gf_mul(static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(c)) == 1) {
        inv = static_cast<std::uint8_t>(c);
        break;
      }
    }
    std::uint8_t s = inv;
    for (int r = 1; r <= 4; ++r) s ^= static_cast<std::uint8_t>((inv << r) | (inv >> (8 - r)));
    sbox[x] = static_cast<std::uint8_t>(s ^ 0x63);
  }
  return sbox;
}

// The byte-wise FIPS 197 section 5.2 schedule.
Bytes key_schedule_reference(ByteSpan key) {
  static const std::array<std::uint8_t, 256> kSbox = make_sbox();
  static constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                             0x20, 0x40, 0x80, 0x1b, 0x36};
  const auto sbox = [](std::uint8_t x) { return kSbox[x]; };
  const std::size_t nk = key.size() / 4;
  const std::size_t total_words = 4 * (nk + 7);
  Bytes w(4 * total_words);
  std::memcpy(w.data(), key.data(), key.size());
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, w.data() + 4 * (i - 1), 4);
    if (i % nk == 0) {
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(sbox(temp[1]) ^ kRcon[i / nk]);
      temp[1] = sbox(temp[2]);
      temp[2] = sbox(temp[3]);
      temp[3] = sbox(t0);
    } else if (nk > 6 && i % nk == 4) {
      for (auto& t : temp) t = sbox(t);
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + j] = static_cast<std::uint8_t>(w[4 * (i - nk) + j] ^ temp[j]);
    }
  }
  return w;
}

Bytes schedule_of(const Aes& aes) {
  const ByteSpan rk = aes.round_keys();
  return Bytes(rk.begin(), rk.end());
}

struct ScheduleVector {
  std::string_view key;
  std::string_view first;  // w[nk]..w[nk+3], the first derived words
  std::string_view last;   // the last round key
};

// FIPS 197 Appendix A.1 (AES-128), A.2 (AES-192), A.3 (AES-256).
constexpr ScheduleVector kScheduleVectors[] = {
    {"2b7e151628aed2a6abf7158809cf4f3c", "a0fafe1788542cb123a339392a6c7605",
     "d014f9a8c9ee2589e13f0cc8b6630ca6"},
    {"8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
     "fe0c91f72402f5a5ec12068e6c827f6b", "e98ba06f448c773c8ecc720401002202"},
    {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "9ba354118e6925afa51a8b5f2067fcde", "fe4890d1e6188d0b046df344706c631e"},
};

TEST(AesKeySchedule, Fips197AppendixA) {
  for (const auto& v : kScheduleVectors) {
    SCOPED_TRACE(v.key);
    const Bytes key = unhex(v.key);
    const Bytes got = schedule_of(Aes(key));
    ASSERT_EQ(got.size(), 16 * (key.size() / 4 + 7));
    EXPECT_EQ(Bytes(got.begin(), got.begin() + static_cast<std::ptrdiff_t>(key.size())), key);
    EXPECT_EQ(hex_encode(ByteSpan(got.data() + key.size(), 16)), v.first);
    EXPECT_EQ(hex_encode(ByteSpan(got.data() + got.size() - 16, 16)), v.last);
    EXPECT_EQ(got, key_schedule_reference(key));
  }
}

TEST(AesKeySchedule, RandomKeysMatchByteWiseReference) {
  Rng rng(0x5c4ed);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    for (int trial = 0; trial < 1000; ++trial) {
      const Bytes key = rng.bytes(key_len);
      const Aes aes(key);
      ASSERT_EQ(schedule_of(aes), key_schedule_reference(key)) << hex_encode(key);
      // The T-table kernel reads the word form of the schedule; it must
      // agree with the reference kernel, which reads the bytes.
      const Aes::Block in = [&] {
        Aes::Block b{};
        const Bytes r = rng.bytes(16);
        std::memcpy(b.data(), r.data(), 16);
        return b;
      }();
      ScopedKernelTierCap pin(KernelTier::kPortable);
      ASSERT_EQ(aes.encrypt_block(in), aes.encrypt_block_reference(in)) << hex_encode(key);
    }
  }
}

// ---- GCM H powers -----------------------------------------------------------

// The faster tiers fold four blocks with H^4..H^1. A ghash of one random
// block followed by k-1 zero blocks is ((b*H^k) ^ L)*H for the length
// block L, so matching the reference tier on it pins H^k for k = 1..4.
TEST(GcmBitIdentity, FastTiersMatchReferenceOverRandomKeys) {
  Rng rng(0x6c3);
  for (const KernelTier tier : {KernelTier::kPortable, KernelTier::kSimd}) {
    {
      ScopedKernelTierCap probe(tier);
      if (ghash_dispatch_tier() != tier) continue;
    }
    SCOPED_TRACE(tier_name(tier));
    for (int trial = 0; trial < 1000; ++trial) {
      const Bytes key = rng.bytes(16 + 8 * (trial % 3));
      std::optional<AesGcm> fast;
      {
        ScopedKernelTierCap pin(tier);
        fast.emplace(key);
      }
      ASSERT_EQ(fast->ghash_tier(), tier);
      std::optional<AesGcm> ref;
      {
        ScopedKernelTierCap pin(KernelTier::kReference);
        ref.emplace(key);
      }
      for (std::size_t k = 1; k <= 4; ++k) {
        Bytes blocks(16 * k, 0);
        const Bytes b = rng.bytes(16);
        std::memcpy(blocks.data(), b.data(), 16);
        ASSERT_EQ(fast->ghash({}, blocks), ref->ghash({}, blocks))
            << "H^" << k << " key " << hex_encode(key);
      }
      const Bytes nonce = rng.bytes(AesGcm::kNonceSize);
      const Bytes aad = rng.bytes(trial % 21);
      const Bytes pt = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 300)));
      ASSERT_EQ(fast->seal(nonce, pt, aad), ref->seal(nonce, pt, aad)) << hex_encode(key);
    }
  }
}

// ---- Entropy ----------------------------------------------------------------

// The plain sum: one p*log2(p) per nonzero bin, in bin order.
double entropy_reference(ByteSpan data) {
  if (data.empty()) return 0.0;
  std::array<std::size_t, 256> counts{};
  for (std::uint8_t b : data) ++counts[b];
  const double n = static_cast<double>(data.size());
  double h = 0.0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

TEST(EntropyBitIdentity, ExactlyThePlainSum) {
  Rng rng(0xe17);
  EXPECT_EQ(shannon_entropy({}), 0.0);
  for (const std::size_t len : {1u, 594u, 16384u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Bytes data = rng.bytes(len);
      EXPECT_EQ(shannon_entropy(data), entropy_reference(data)) << len;
    }
  }
  // Low-entropy payloads: a few bins hold counts far past the memo bound
  // of 256, next to bins with small counts.
  for (const double bits : {0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 7.9}) {
    const EntropySource source(bits, rng);
    for (const std::size_t len : {594u, 4096u, 16384u}) {
      const Bytes data = source.generate(len, rng);
      EXPECT_EQ(shannon_entropy(data), entropy_reference(data)) << bits << " " << len;
    }
  }
  const Bytes skewed = [&] {
    Bytes d = rng.bytes(2000);
    for (std::size_t i = 0; i < d.size(); i += 2) d[i] = 0x41;
    return d;
  }();
  EXPECT_EQ(shannon_entropy(skewed), entropy_reference(skewed));
}

// ---- RC4 --------------------------------------------------------------------

// Textbook RC4: KSA with i % key length, then PRGA.
Bytes rc4_reference(ByteSpan key, std::size_t len) {
  std::uint8_t s[256];
  for (int i = 0; i < 256; ++i) s[i] = static_cast<std::uint8_t>(i);
  std::uint8_t j = 0;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<std::uint8_t>(j + s[i] + key[static_cast<std::size_t>(i) % key.size()]);
    std::swap(s[i], s[j]);
  }
  Bytes out(len);
  std::uint8_t a = 0, b = 0;
  for (auto& o : out) {
    a = static_cast<std::uint8_t>(a + 1);
    b = static_cast<std::uint8_t>(b + s[a]);
    std::swap(s[a], s[b]);
    o = s[static_cast<std::uint8_t>(s[a] + s[b])];
  }
  return out;
}

TEST(Rc4BitIdentity, KeyLengthsMatchReference) {
  Rng rng(0x4c4);
  for (const std::size_t key_len : {1u, 5u, 16u, 255u, 256u}) {
    for (int trial = 0; trial < 50; ++trial) {
      const Bytes key = rng.bytes(key_len);
      Rc4 rc4(key);
      EXPECT_EQ(rc4.transform(Bytes(1024, 0)), rc4_reference(key, 1024)) << key_len;
    }
  }
}

// RFC 6229: keystream at offsets 0 and 16 for the keys 0x01 0x02 ....
TEST(Rc4BitIdentity, Rfc6229Vectors) {
  struct Vector {
    std::size_t key_len;
    std::string_view offset0;
    std::string_view offset16;
  };
  constexpr Vector kVectors[] = {
      {5, "b2396305f03dc027ccc3524a0a1118a8", "6982944f18fc82d589c403a47a0d0919"},
      {16, "9ac7cc9a609d1ef7b2932899cde41b97", "5248c4959014126a6e8a84f11d1a9e1c"},
      {32, "eaa6bd25880bf93d3f5d1e4ca2611d91", "cfa45c9f7e714b54bdfa80027cb14380"},
  };
  for (const auto& v : kVectors) {
    Bytes key(v.key_len);
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
    Rc4 rc4(key);
    const Bytes ks = rc4.transform(Bytes(32, 0));
    EXPECT_EQ(hex_encode(ByteSpan(ks.data(), 16)), v.offset0) << v.key_len;
    EXPECT_EQ(hex_encode(ByteSpan(ks.data() + 16, 16)), v.offset16) << v.key_len;
    EXPECT_EQ(ks, rc4_reference(key, 32));
  }
}

}  // namespace
}  // namespace gfwsim::crypto
