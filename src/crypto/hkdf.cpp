#include "crypto/hkdf.h"

#include <algorithm>
#include <array>

namespace gfwsim::crypto {

namespace {

constexpr std::size_t kMemoMaxLen = 32;

// The (master, salt) pair a slot answers for, and HKDF's output for it.
struct SubkeyMemoSlot {
  std::uint8_t master_len = 0, salt_len = 0;
  bool filled = false;
  std::array<std::uint8_t, kMemoMaxLen> master{}, salt{}, subkey{};
};

// Per thread, so the shard threads never share or lock it.
thread_local std::array<SubkeyMemoSlot, kSsSubkeyMemoSlots> t_subkey_memo;

}  // namespace

std::size_t ss_subkey_memo_slot(ByteSpan salt) {
  std::uint32_t h = 2166136261u;  // FNV-1a
  for (const std::uint8_t b : salt) h = (h ^ b) * 16777619u;
  return (h ^ (h >> 16)) % kSsSubkeyMemoSlots;
}

Bytes ss_subkey(ByteSpan master_key, ByteSpan salt) {
  static constexpr char kInfo[] = "ss-subkey";
  const ByteSpan info(reinterpret_cast<const std::uint8_t*>(kInfo), sizeof(kInfo) - 1);
  if (master_key.size() > kMemoMaxLen || salt.size() > kMemoMaxLen) {
    return hkdf<Sha1>(master_key, salt, info, master_key.size());
  }
  SubkeyMemoSlot& slot = t_subkey_memo[ss_subkey_memo_slot(salt)];
  const bool hit = slot.filled && slot.master_len == master_key.size() &&
                   slot.salt_len == salt.size() &&
                   std::equal(master_key.begin(), master_key.end(), slot.master.begin()) &&
                   std::equal(salt.begin(), salt.end(), slot.salt.begin());
  if (!hit) {
    // A miss derives straight into the slot: the PRK and the expansion
    // blocks live on the stack, so only the returned copy allocates.
    hkdf_expand_into<Sha1>(hkdf_prk<Sha1>(salt, master_key), info, slot.subkey.data(),
                           master_key.size());
    std::copy(master_key.begin(), master_key.end(), slot.master.begin());
    std::copy(salt.begin(), salt.end(), slot.salt.begin());
    slot.master_len = static_cast<std::uint8_t>(master_key.size());
    slot.salt_len = static_cast<std::uint8_t>(salt.size());
    slot.filled = true;
  }
  return Bytes(slot.subkey.begin(), slot.subkey.begin() + slot.master_len);
}

}  // namespace gfwsim::crypto
