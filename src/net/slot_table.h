// Owner-side storage for short-lived objects that asynchronous callbacks
// refer to by handle.
//
// Values live in a vector of slots recycled through a free list. A handle
// (`Id`) packs the slot index with the slot's generation, which is bumped
// every time the slot is freed, so a handle captured by a callback or a
// timer before its value was erased resolves to nothing afterwards, even
// once the slot holds a new value. The same scheme guards EventLoop
// TimerIds (net/event_loop.h).
//
// A handle is 8 bytes: a callback capturing `[this, id]` fits the inline
// buffer of std::function and of the event loop's callbacks, so handing
// one out allocates nothing. Pointers from get() stay valid only until
// the next emplace (the vector may grow).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace gfwsim::net {

template <typename T>
class SlotTable {
 public:
  using Id = std::uint64_t;

  template <typename... Args>
  Id emplace(Args&&... args) {
    std::uint32_t index;
    if (free_head_ != kNil) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.value.emplace(std::forward<Args>(args)...);
    ++live_;
    return (static_cast<Id>(slot.gen) << 32) | index;
  }

  // The value `id` names, or null when it was erased (stale handle).
  T* get(Id id) {
    const auto index = static_cast<std::uint32_t>(id);
    if (index >= slots_.size()) return nullptr;
    Slot& slot = slots_[index];
    if (slot.gen != static_cast<std::uint32_t>(id >> 32) || !slot.value) return nullptr;
    return &*slot.value;
  }

  // Destroys the value and recycles its slot; a stale `id` is a no-op.
  void erase(Id id) {
    if (get(id) == nullptr) return;
    const auto index = static_cast<std::uint32_t>(id);
    Slot& slot = slots_[index];
    slot.value.reset();
    ++slot.gen;
    slot.next_free = free_head_;
    free_head_ = index;
    --live_;
  }

  // Values currently held.
  std::size_t size() const { return live_; }

  // Calls fn on every held value; fn must not emplace or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : slots_) if (slot.value) fn(*slot.value);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    std::optional<T> value;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNil;
  };

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
};

}  // namespace gfwsim::net
