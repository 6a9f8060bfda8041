#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/rng.h"
#include "crypto/sha1.h"
#include "servers/replay_filter.h"

namespace gfwsim::servers {
namespace {

TEST(BloomReplayFilter, RemembersInsertedNonces) {
  BloomReplayFilter filter(1000);
  crypto::Rng rng(1);
  const Bytes a = rng.bytes(32);
  const Bytes b = rng.bytes(32);
  EXPECT_FALSE(filter.contains(a));
  filter.insert(a);
  EXPECT_TRUE(filter.contains(a));
  EXPECT_FALSE(filter.contains(b));
}

TEST(BloomReplayFilter, CheckAndInsertSemantics) {
  BloomReplayFilter filter(1000);
  crypto::Rng rng(2);
  const Bytes nonce = rng.bytes(16);
  EXPECT_FALSE(filter.check_and_insert(nonce));
  EXPECT_TRUE(filter.check_and_insert(nonce));
}

TEST(BloomReplayFilter, LowFalsePositiveRate) {
  BloomReplayFilter filter(10000, 10);
  crypto::Rng rng(3);
  for (int i = 0; i < 10000; ++i) filter.insert(rng.bytes(16));
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (filter.contains(rng.bytes(16))) ++false_positives;
  }
  EXPECT_LT(false_positives, 300);  // < 3% at 10 bits/entry
}

TEST(BloomReplayFilter, GenerationRotationForgetsOldEntries) {
  // This is the weakness the paper's section 7.2 points at: after enough
  // churn, a nonce seen long ago is forgotten, so a censor replaying
  // after 570 hours can slip past a pure Bloom design.
  BloomReplayFilter filter(100);
  crypto::Rng rng(4);
  const Bytes ancient = rng.bytes(32);
  filter.insert(ancient);
  // Two full generations of fresh traffic.
  for (int i = 0; i < 250; ++i) filter.insert(rng.bytes(32));
  EXPECT_FALSE(filter.contains(ancient));
}

TEST(BloomReplayFilter, SurvivesOneGenerationRotation) {
  BloomReplayFilter filter(100);
  crypto::Rng rng(5);
  const Bytes nonce = rng.bytes(32);
  filter.insert(nonce);
  for (int i = 0; i < 120; ++i) filter.insert(rng.bytes(32));  // rotate once
  EXPECT_TRUE(filter.contains(nonce));  // still in the previous generation
}

// ppbloom as first written: both generations allocated up front, one
// bool per bit, and rotation by copying the full generation over the old
// one. Same SHA-1 double hashing and 10 bits per entry as the filter.
class ReferenceBloom {
 public:
  explicit ReferenceBloom(std::size_t capacity)
      : capacity_(capacity),
        bit_count_(std::max<std::size_t>(64, capacity * 10)),
        current_(bit_count_, false),
        previous_(bit_count_, false) {}

  bool contains(ByteSpan nonce) const {
    const std::vector<std::size_t> pos = positions(nonce);
    const auto all_set = [&pos](const std::vector<bool>& g) {
      return std::all_of(pos.begin(), pos.end(), [&g](std::size_t p) { return g[p]; });
    };
    return all_set(current_) || all_set(previous_);
  }

  void insert(ByteSpan nonce) {
    if (count_ >= capacity_) {
      previous_ = current_;
      current_.assign(bit_count_, false);
      count_ = 0;
      ++rotations_;
    }
    for (const std::size_t p : positions(nonce)) current_[p] = true;
    ++count_;
  }

  bool check_and_insert(ByteSpan nonce) {
    const bool seen = contains(nonce);
    if (!seen) insert(nonce);
    return seen;
  }

  std::size_t rotations() const { return rotations_; }

 private:
  std::vector<std::size_t> positions(ByteSpan nonce) const {
    const auto digest = crypto::Sha1::hash(nonce);
    const std::uint64_t h1 = load_le64(digest.data());
    const std::uint64_t h2 = load_le64(digest.data() + 8) | 1;
    std::vector<std::size_t> out;
    for (std::uint64_t i = 0; i < 7; ++i) {
      out.push_back(static_cast<std::size_t>((h1 + i * h2) % bit_count_));
    }
    return out;
  }

  std::size_t capacity_;
  std::size_t bit_count_;
  std::vector<bool> current_;
  std::vector<bool> previous_;
  std::size_t count_ = 0;
  std::size_t rotations_ = 0;
};

TEST(BloomReplayFilter, MatchesCopyOnRotateReferenceAcrossRotations) {
  // At capacity 50 (500 bits) false positives are frequent, so "seen"
  // answers on fresh nonces are exercised as well as true replays. The
  // first 50 inserts run before any rotation, while the filter's second
  // generation is still unallocated.
  constexpr std::size_t kCapacity = 50;
  BloomReplayFilter filter(kCapacity);
  ReferenceBloom reference(kCapacity);
  crypto::Rng rng(11);
  std::vector<Bytes> seen_nonces;
  std::size_t steps = 0;
  std::size_t positives = 0;
  while (reference.rotations() < 6) {
    const bool replay = !seen_nonces.empty() && rng.bernoulli(0.4);
    const Bytes nonce = replay ? seen_nonces[rng.uniform(0, seen_nonces.size() - 1)]
                               : rng.bytes(rng.bernoulli(0.5) ? 16 : 32);
    const bool before_rotation = reference.rotations() == 0;
    bool got = false;
    bool want = false;
    switch (rng.uniform(0, 2)) {
      case 0:
        got = filter.contains(nonce);
        want = reference.contains(nonce);
        break;
      case 1:
        filter.insert(nonce);
        reference.insert(nonce);
        got = filter.contains(nonce);
        want = reference.contains(nonce);
        break;
      default:
        got = filter.check_and_insert(nonce);
        want = reference.check_and_insert(nonce);
        break;
    }
    ASSERT_EQ(got, want) << "step " << steps << (before_rotation ? ", before the first rotation" : "");
    if (want) ++positives;
    if (!replay) seen_nonces.push_back(nonce);
    ++steps;
  }
  // Both answers occurred, and after the last rotation every nonce ever
  // used still gets the reference's answer.
  EXPECT_GT(positives, 0u);
  EXPECT_LT(positives, steps);
  for (const Bytes& nonce : seen_nonces) {
    ASSERT_EQ(filter.contains(nonce), reference.contains(nonce));
  }
}

TEST(NonceTimeReplayFilter, AcceptsFreshRejectsReplay) {
  NonceTimeReplayFilter filter(net::seconds(120));
  crypto::Rng rng(6);
  const Bytes nonce = rng.bytes(32);
  const auto now = net::seconds(1000);
  EXPECT_TRUE(filter.accept(nonce, now, now));
  EXPECT_FALSE(filter.accept(nonce, now, now + net::seconds(1)));  // replayed
}

TEST(NonceTimeReplayFilter, RejectsStaleTimestamps) {
  NonceTimeReplayFilter filter(net::seconds(120));
  crypto::Rng rng(7);
  const auto now = net::hours(600);
  // Replay of a connection recorded 570 hours ago (the paper's maximum
  // observed delay): rejected by timestamp alone, no memory needed.
  EXPECT_FALSE(filter.accept(rng.bytes(32), now - net::hours(570), now));
  // Clock skew in either direction beyond the window also fails.
  EXPECT_FALSE(filter.accept(rng.bytes(32), now + net::seconds(121), now));
  EXPECT_TRUE(filter.accept(rng.bytes(32), now + net::seconds(119), now));
}

TEST(NonceTimeReplayFilter, MemoryIsBoundedByWindow) {
  // The inverted asymmetry: nonces need remembering only for the window.
  NonceTimeReplayFilter filter(net::seconds(60));
  crypto::Rng rng(8);
  auto now = net::seconds(0);
  for (int i = 0; i < 1000; ++i) {
    now += net::seconds(1);
    EXPECT_TRUE(filter.accept(rng.bytes(32), now, now));
  }
  EXPECT_LE(filter.remembered(), 62u);

  // And a nonce can be re-accepted after its window expires (at which
  // point the timestamp check is what rejects actual replays).
  NonceTimeReplayFilter filter2(net::seconds(60));
  const Bytes nonce = rng.bytes(32);
  EXPECT_TRUE(filter2.accept(nonce, net::seconds(10), net::seconds(10)));
  EXPECT_TRUE(filter2.accept(nonce, net::seconds(200), net::seconds(200)));
}

TEST(NonceTimeReplayFilter, HardCapEvictsOldestFirstUnderFlood) {
  // A replay flood inside the window would otherwise grow the nonce
  // store without bound; the cap evicts oldest-first and counts it.
  NonceTimeReplayFilter filter(net::hours(1), /*max_remembered=*/64);
  crypto::Rng rng(9);
  const auto now = net::seconds(100);
  const Bytes oldest = rng.bytes(32);
  EXPECT_TRUE(filter.accept(oldest, now, now));
  for (int i = 0; i < 200; ++i) {
    // All inside the window: nothing expires, so only the cap bounds us.
    EXPECT_TRUE(filter.accept(rng.bytes(32), now + net::seconds(i), now + net::seconds(i)));
  }
  EXPECT_LE(filter.remembered(), 64u);
  EXPECT_EQ(filter.evicted(), 201u - 64u);
  // The oldest nonce was evicted — a replay of it now squeaks through
  // (the documented bounded-memory trade-off)...
  EXPECT_TRUE(filter.accept(oldest, now, now + net::seconds(200)));
  // ...while the newest remembered nonces still reject replays.
  EXPECT_EQ(filter.evicted(), 202u - 64u);
}

TEST(NonceTimeReplayFilter, CapNeverEvictsTheNonceBeingChecked) {
  // Eviction happens after the replay lookup: a replayed nonce must be
  // rejected even when the store sits exactly at the cap.
  NonceTimeReplayFilter filter(net::hours(1), /*max_remembered=*/4);
  crypto::Rng rng(10);
  const auto now = net::seconds(50);
  std::vector<Bytes> nonces;
  for (int i = 0; i < 4; ++i) {
    nonces.push_back(rng.bytes(32));
    EXPECT_TRUE(filter.accept(nonces.back(), now, now));
  }
  // At the cap: the most recent nonce is still remembered and rejected.
  EXPECT_FALSE(filter.accept(nonces.back(), now, now + net::seconds(1)));
  EXPECT_EQ(filter.evicted(), 0u);
}

}  // namespace
}  // namespace gfwsim::servers
