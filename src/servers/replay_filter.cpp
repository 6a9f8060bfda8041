#include "servers/replay_filter.h"

#include "crypto/sha1.h"

namespace gfwsim::servers {

BloomReplayFilter::BloomReplayFilter(std::size_t capacity, std::size_t bits_per_entry)
    : capacity_(capacity),
      bit_count_(std::max<std::size_t>(64, capacity * bits_per_entry)),
      current_((bit_count_ + 63) / 64, 0) {}

BloomReplayFilter::Positions BloomReplayFilter::positions(ByteSpan nonce) const {
  // Kirsch-Mitzenmacher double hashing from a SHA-1 of the nonce.
  const auto digest = crypto::Sha1::hash(nonce);
  const std::uint64_t h1 = load_le64(digest.data());
  const std::uint64_t h2 = load_le64(digest.data() + 8) | 1;  // odd
  Positions out;
  for (std::size_t i = 0; i < kHashCount; ++i) {
    out[i] = static_cast<std::size_t>((h1 + i * h2) % bit_count_);
  }
  return out;
}

bool BloomReplayFilter::seen(const Positions& pos) const {
  const auto all_set = [&pos](const Generation& g) {
    if (g.empty()) return false;
    for (const std::size_t p : pos) {
      if (((g[p / 64] >> (p % 64)) & 1) == 0) return false;
    }
    return true;
  };
  return all_set(current_) || all_set(previous_);
}

void BloomReplayFilter::insert_at(const Positions& pos) {
  if (count_current_ >= capacity_) {
    // The full generation becomes the previous one; the oldest is wiped
    // and reused (allocated here the first time).
    current_.swap(previous_);
    current_.assign((bit_count_ + 63) / 64, 0);
    count_current_ = 0;
  }
  for (const std::size_t p : pos) current_[p / 64] |= 1ull << (p % 64);
  ++count_current_;
}

bool BloomReplayFilter::contains(ByteSpan nonce) const { return seen(positions(nonce)); }

void BloomReplayFilter::insert(ByteSpan nonce) { insert_at(positions(nonce)); }

bool BloomReplayFilter::check_and_insert(ByteSpan nonce) {
  const Positions pos = positions(nonce);
  if (seen(pos)) return true;
  insert_at(pos);
  return false;
}

bool NonceTimeReplayFilter::accept(ByteSpan nonce, net::TimePoint claimed_time,
                                   net::TimePoint now) {
  prune(now);
  const net::Duration skew =
      claimed_time > now ? claimed_time - now : now - claimed_time;
  if (skew > window_) return false;

  std::string key(nonce.begin(), nonce.end());
  if (by_nonce_.count(key) > 0) return false;

  // Replay-check first, THEN make room: evicting before the lookup could
  // evict the very nonce being replayed and wave the replay through.
  while (by_nonce_.size() >= max_remembered_ && !expiry_queue_.empty()) {
    by_nonce_.erase(expiry_queue_.front().second);
    expiry_queue_.pop_front();
    ++evicted_;
  }

  expiry_queue_.emplace_back(now + window_, key);
  by_nonce_.insert(std::move(key));
  return true;
}

void NonceTimeReplayFilter::prune(net::TimePoint now) {
  while (!expiry_queue_.empty() && expiry_queue_.front().first <= now) {
    by_nonce_.erase(expiry_queue_.front().second);
    expiry_queue_.pop_front();
  }
}

}  // namespace gfwsim::servers
