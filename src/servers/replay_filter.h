// Replay defenses.
//
// BloomReplayFilter models shadowsocks-libev's "ppbloom": a pair of
// alternating Bloom filters remembering the IVs/salts of past connections.
// When the active filter fills up, the older one is dropped — so very old
// entries are eventually forgotten, which is exactly the asymmetry the
// paper's section 7.2 criticizes (the GFW can replay after 570 hours; a
// nonce-only filter must remember forever to stop that).
//
// NonceTimeReplayFilter is the paper's recommended fix (VMess-style):
// remember nonces only within a freshness window and reject anything
// whose embedded timestamp falls outside it.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "crypto/bytes.h"
#include "net/time.h"

namespace gfwsim::servers {

class BloomReplayFilter {
 public:
  // `capacity`: entries per generation; `bits_per_entry` controls the
  // false-positive rate (10 bits -> ~1%).
  explicit BloomReplayFilter(std::size_t capacity = 100000, std::size_t bits_per_entry = 10);

  // Returns true if `nonce` was (probably) seen before. Does not insert.
  bool contains(ByteSpan nonce) const;

  // Inserts `nonce`, rotating generations when the current one is full.
  void insert(ByteSpan nonce);

  // contains() + insert() in one step; returns the contains() result.
  bool check_and_insert(ByteSpan nonce);

 private:
  static constexpr std::size_t kHashCount = 7;
  using Positions = std::array<std::size_t, kHashCount>;
  // One generation's bits, 64 to a word. A generation with no words has
  // never been written and answers "not seen".
  using Generation = std::vector<std::uint64_t>;

  Positions positions(ByteSpan nonce) const;
  bool seen(const Positions& pos) const;
  void insert_at(const Positions& pos);

  std::size_t capacity_;
  std::size_t bit_count_;
  Generation current_;
  // Empty until the first rotation: most filters never fill a generation.
  Generation previous_;
  std::size_t count_current_ = 0;
};

class NonceTimeReplayFilter {
 public:
  // `window`: how far a connection's timestamp may deviate from the
  // server clock and how long nonces are remembered. `max_remembered`
  // hard-caps the nonce store: a replay FLOOD inside the window would
  // otherwise grow `by_nonce_`/`expiry_queue_` without bound, so once
  // the cap is reached the oldest remembered nonces are evicted first
  // (counted in evicted()). An evicted nonce could in principle be
  // replayed again within the window — bounded memory traded against a
  // vanishingly small replay surface, the same call VMess makes.
  explicit NonceTimeReplayFilter(net::Duration window = net::seconds(120),
                                 std::size_t max_remembered = 1u << 20)
      : window_(window), max_remembered_(max_remembered) {}

  // Accepts the connection iff `claimed_time` is within the window of
  // `now` and the nonce was not seen inside the window. Accepted nonces
  // are remembered; expired ones are pruned.
  bool accept(ByteSpan nonce, net::TimePoint claimed_time, net::TimePoint now);

  std::size_t remembered() const { return by_nonce_.size(); }
  net::Duration window() const { return window_; }
  std::size_t max_remembered() const { return max_remembered_; }
  // Nonces evicted oldest-first to respect the cap (prunes of expired
  // entries do not count).
  std::size_t evicted() const { return evicted_; }

 private:
  void prune(net::TimePoint now);

  net::Duration window_;
  std::size_t max_remembered_;
  std::size_t evicted_ = 0;
  std::unordered_set<std::string> by_nonce_;
  std::deque<std::pair<net::TimePoint, std::string>> expiry_queue_;
};

}  // namespace gfwsim::servers
