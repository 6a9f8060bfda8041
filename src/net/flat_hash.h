// Open-addressing hash table for the network hot path.
//
// Network resolves a connection, a latency override, and a fault profile
// for every routed segment; std::map pays a pointer-chasing tree walk
// (plus an allocation per insert) for each. FlatHashMap stores entries in
// one flat array with linear probing and backward-shift deletion — no
// tombstones, no per-entry allocation, O(1) expected lookup on the packed
// integer keys the callers build (4-tuples and address pairs folded into
// 64-bit words).
//
// Contract notes:
//  - Keys must be trivially copyable and equality-comparable; values must
//    be default-constructible and movable (ids, unique_ptr, Rng,
//    plain structs all qualify).
//  - Pointers returned by find()/emplace are invalidated by any insert
//    (the table may rehash) and by any erase (backshift moves entries).
//  - Iteration order is unspecified; every consumer in Network is
//    order-insensitive (counting scans and any_faults recomputation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gfwsim::net {

// SplitMix64 finalizer: full-avalanche mix for packed integer keys whose
// entropy sits in adjacent bits (addresses, ports).
inline std::uint64_t hash_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct U64Hash {
  std::uint64_t operator()(std::uint64_t key) const { return hash_mix64(key); }
};

template <typename Key, typename T, typename Hash = U64Hash>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    keys_.clear();
    values_.clear();
    used_.clear();
    size_ = 0;
    mask_ = 0;
  }

  T* find(const Key& key) {
    const std::size_t i = find_index(key);
    return i == npos ? nullptr : &values_[i];
  }
  const T* find(const Key& key) const {
    const std::size_t i = find_index(key);
    return i == npos ? nullptr : &values_[i];
  }

  // Inserts a default-constructed value if absent. Returns (value,
  // inserted); the pointer is valid until the next insert or erase.
  std::pair<T*, bool> try_emplace(const Key& key) {
    reserve_for_insert();
    std::size_t i = Hash{}(key)&mask_;
    while (used_[i]) {
      if (keys_[i] == key) return {&values_[i], false};
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    keys_[i] = key;
    values_[i] = T{};
    ++size_;
    return {&values_[i], true};
  }

  // Returns true when the key was newly inserted (false = overwrite).
  bool insert_or_assign(const Key& key, T value) {
    auto [slot, inserted] = try_emplace(key);
    *slot = std::move(value);
    return inserted;
  }

  bool erase(const Key& key) {
    std::size_t i = find_index(key);
    if (i == npos) return false;
    // Backward-shift deletion: pull every displaced follower one slot
    // back so probe chains stay contiguous without tombstones.
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!used_[j]) break;
      const std::size_t home = Hash{}(keys_[j]) & mask_;
      // Move j back to i unless j still sits within its own probe path
      // starting at `home` that does not pass through i.
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        keys_[i] = keys_[j];
        values_[i] = std::move(values_[j]);
        i = j;
      }
    }
    used_[i] = 0;
    values_[i] = T{};
    --size_;
    return true;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) f(keys_[i], values_[i]);
    }
  }
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) f(keys_[i], values_[i]);
    }
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t find_index(const Key& key) const {
    if (size_ == 0) return npos;
    std::size_t i = Hash{}(key)&mask_;
    while (used_[i]) {
      if (keys_[i] == key) return i;
      i = (i + 1) & mask_;
    }
    return npos;
  }

  void reserve_for_insert() {
    // Keep load below 7/8 so probe chains stay short.
    if (used_.empty()) {
      rehash(16);
    } else if ((size_ + 1) * 8 > used_.size() * 7) {
      rehash(used_.size() * 2);
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<T> old_values = std::move(values_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.clear();
    keys_.resize(new_capacity);
    values_.clear();
    values_.resize(new_capacity);  // resize, not assign: T may be move-only
    used_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_used.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = Hash{}(old_keys[i]) & mask_;
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<Key> keys_;
  std::vector<T> values_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace gfwsim::net
