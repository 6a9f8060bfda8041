// RFC 5869 HKDF vectors and EVP_BytesToKey behaviour tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/hkdf.h"
#include "crypto/kdf.h"
#include "crypto/md5.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"

namespace gfwsim::crypto {
namespace {

// Heap allocations made through operator new (replaced below), so a test
// can check what one call allocates.
std::atomic<std::size_t> g_allocations{0};

}  // namespace
}  // namespace gfwsim::crypto

// Out of line, so GCC does not pair the inlined malloc/free with the
// new/delete expressions of their callers (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  gfwsim::crypto::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gfwsim::crypto {
namespace {

Bytes unhex(std::string_view s) {
  auto v = hex_decode(s);
  EXPECT_TRUE(v.has_value()) << s;
  return *v;
}

TEST(Hkdf, Rfc5869Sha256Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = unhex("000102030405060708090a0b0c");
  const Bytes info = unhex("f0f1f2f3f4f5f6f7f8f9");

  const Bytes prk = hkdf_extract<Sha256>(salt, ikm);
  EXPECT_EQ(hex_encode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  const Bytes okm = hkdf_expand<Sha256>(prk, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Sha256Case3EmptySaltAndInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf<Sha256>(ikm, {}, {}, 42);
  EXPECT_EQ(hex_encode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, Rfc5869Sha1Case4) {
  const Bytes ikm(11, 0x0b);
  const Bytes salt = unhex("000102030405060708090a0b0c");
  const Bytes info = unhex("f0f1f2f3f4f5f6f7f8f9");

  const Bytes prk = hkdf_extract<Sha1>(salt, ikm);
  EXPECT_EQ(hex_encode(prk), "9b6c18c432a7bf8f0e71c8eb88f4b30baa2ba243");

  const Bytes okm = hkdf_expand<Sha1>(prk, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "085a01ea1b10f36933068b56efa5ad81a4f14b822f5b091568a9cdd4f155fda2"
            "c22e422478d305f3f896");
}

TEST(Hkdf, ExpandLengthLimits) {
  const Bytes prk(20, 0x11);
  EXPECT_NO_THROW(hkdf_expand<Sha1>(prk, {}, 255 * 20));
  EXPECT_THROW(hkdf_expand<Sha1>(prk, {}, 255 * 20 + 1), std::invalid_argument);
}

TEST(Hkdf, OutputIsPrefixConsistent) {
  // RFC 5869: shorter outputs are prefixes of longer ones.
  const Bytes ikm(32, 0x42);
  const Bytes salt = to_bytes("salty");
  const Bytes long_okm = hkdf<Sha1>(ikm, salt, to_bytes("info"), 64);
  const Bytes short_okm = hkdf<Sha1>(ikm, salt, to_bytes("info"), 17);
  EXPECT_EQ(Bytes(long_okm.begin(), long_okm.begin() + 17), short_okm);
}

TEST(SsSubkey, MatchesManualHkdfSha1) {
  const Bytes master(32, 0xaa);
  const Bytes salt(32, 0x55);
  const Bytes expected = hkdf<Sha1>(master, salt, to_bytes("ss-subkey"), 32);
  EXPECT_EQ(ss_subkey(master, salt), expected);
}

TEST(SsSubkey, DifferentSaltsGiveDifferentKeys) {
  const Bytes master(32, 0xaa);
  Bytes salt_a(32, 0x01), salt_b(32, 0x02);
  EXPECT_NE(ss_subkey(master, salt_a), ss_subkey(master, salt_b));
}

// ---- Per-thread subkey memo ----------------------------------------------

Bytes reference_subkey(ByteSpan master, ByteSpan salt) {
  return hkdf<Sha1>(master, salt, to_bytes("ss-subkey"), master.size());
}

TEST(SsSubkeyMemo, HitEqualsHkdfByteForByte) {
  Rng rng(0x5b1e);
  for (const std::size_t len : {16u, 24u, 32u}) {
    const Bytes master = rng.bytes(len);
    const Bytes salt = rng.bytes(len);
    const Bytes expected = reference_subkey(master, salt);
    EXPECT_EQ(ss_subkey(master, salt), expected) << "miss, len=" << len;
    EXPECT_EQ(ss_subkey(master, salt), expected) << "hit, len=" << len;
  }
  // Longer than a memo slot holds: derived directly, still exact.
  const Bytes long_master = rng.bytes(48);
  const Bytes long_salt = rng.bytes(64);
  EXPECT_EQ(ss_subkey(long_master, long_salt), reference_subkey(long_master, long_salt));
  EXPECT_EQ(ss_subkey(long_master, long_salt), reference_subkey(long_master, long_salt));
}

// A miss derives into the memo slot on the stack; like a hit, it
// allocates only the Bytes it returns.
TEST(SsSubkeyMemo, MissAllocatesOnlyTheResult) {
  Rng rng(0xa110c);
  const Bytes master = rng.bytes(32);
  for (int round = 0; round < 3; ++round) {
    const Bytes salt = rng.bytes(32);
    const Bytes expected = reference_subkey(master, salt);
    for (const char* kind : {"miss", "hit"}) {
      const std::size_t before = g_allocations.load();
      const Bytes subkey = ss_subkey(master, salt);
      EXPECT_EQ(g_allocations.load() - before, 1u) << kind << ", round " << round;
      EXPECT_EQ(subkey, expected) << kind << ", round " << round;
    }
  }
}

TEST(SsSubkeyMemo, OneSaltUnderTwoMasterKeys) {
  Rng rng(0x3a57);
  const Bytes master_a = rng.bytes(32);
  const Bytes master_b = rng.bytes(32);
  const Bytes salt = rng.bytes(32);
  const Bytes want_a = reference_subkey(master_a, salt);
  const Bytes want_b = reference_subkey(master_b, salt);
  ASSERT_NE(want_a, want_b);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(ss_subkey(master_a, salt), want_a) << "round " << round;
    EXPECT_EQ(ss_subkey(master_b, salt), want_b) << "round " << round;
  }
  // A shorter master key that is a prefix of the cached one is its own entry.
  const Bytes prefix(master_a.begin(), master_a.begin() + 16);
  EXPECT_EQ(ss_subkey(prefix, salt), reference_subkey(prefix, salt));
}

TEST(SsSubkeyMemo, CollidingSaltsEvictEachOther) {
  Rng rng(0xc011);
  const Bytes master = rng.bytes(32);
  const Bytes salt_a = rng.bytes(32);
  Bytes salt_b = rng.bytes(32);
  while (ss_subkey_memo_slot(salt_b) != ss_subkey_memo_slot(salt_a) || salt_b == salt_a) {
    salt_b = rng.bytes(32);
  }
  const Bytes want_a = reference_subkey(master, salt_a);
  const Bytes want_b = reference_subkey(master, salt_b);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(ss_subkey(master, salt_a), want_a) << "round " << round;
    EXPECT_EQ(ss_subkey(master, salt_b), want_b) << "round " << round;
  }
}

TEST(SsSubkeyMemo, ConcurrentThreadsAgreeWithSerial) {
  Rng rng(0x7417);
  const Bytes master = rng.bytes(32);
  // Twice the slot count, so the threads also evict as they go.
  std::vector<Bytes> salts;
  std::vector<Bytes> expected;
  for (std::size_t i = 0; i < 2 * kSsSubkeyMemoSlots; ++i) {
    salts.push_back(rng.bytes(32));
    expected.push_back(reference_subkey(master, salts.back()));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Overlapping windows: each thread starts a quarter further in and
      // walks every salt three times.
      const std::size_t n = salts.size();
      for (std::size_t k = 0; k < 3 * n; ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t) * n / kThreads) % n;
        if (ss_subkey(master, salts[i]) != expected[i]) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(EvpBytesToKey, MatchesMd5ChainDefinition) {
  // key = MD5(pw) || MD5(MD5(pw) || pw) || ... truncated to key_len.
  const std::string pw = "barfoo!baz";
  const Bytes d1 = md5(to_bytes(pw));
  const Bytes d2 = md5(concat(d1, to_bytes(pw)));
  const Bytes d3 = md5(concat(d2, to_bytes(pw)));

  EXPECT_EQ(evp_bytes_to_key(pw, 16), d1);

  Bytes want32 = d1;
  append(want32, d2);
  EXPECT_EQ(evp_bytes_to_key(pw, 32), want32);

  // Non-multiple-of-16 lengths truncate the last digest.
  Bytes want24(want32.begin(), want32.begin() + 24);
  EXPECT_EQ(evp_bytes_to_key(pw, 24), want24);

  Bytes want40 = want32;
  want40.insert(want40.end(), d3.begin(), d3.begin() + 8);
  EXPECT_EQ(evp_bytes_to_key(pw, 40), want40);
}

TEST(EvpBytesToKey, KnownOpenSslAnswer) {
  // Independently computable: MD5("test") is a fixed constant, so the
  // 16-byte key for password "test" equals it.
  EXPECT_EQ(hex_encode(evp_bytes_to_key("test", 16)),
            "098f6bcd4621d373cade4e832627b4f6");
}

TEST(EvpBytesToKey, DeterministicAndDistinct) {
  EXPECT_EQ(evp_bytes_to_key("pw1", 32), evp_bytes_to_key("pw1", 32));
  EXPECT_NE(evp_bytes_to_key("pw1", 32), evp_bytes_to_key("pw2", 32));
}

}  // namespace
}  // namespace gfwsim::crypto
