#include "crypto/sha1.h"

#include "crypto/cpu.h"

#ifdef GFWSIM_HAVE_X86_SIMD
#include "crypto/simd_kernels.h"
#endif

namespace gfwsim::crypto {

void Sha1::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  // Rolling 16-word schedule and four branch-free round groups: same
  // FIPS 180-4 math as the classic w[80] single loop, minus the per-round
  // phase branches and the 256-byte spill of the full schedule.
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3], e = state_[4];

  const auto schedule = [&w](int i) {
    const std::uint32_t v = rotl32(
        w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15], 1);
    w[i & 15] = v;
    return v;
  };
  const auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = rotl32(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  };

  for (int i = 0; i < 16; ++i) round((b & c) | (~b & d), 0x5a827999, w[i]);
  for (int i = 16; i < 20; ++i) round((b & c) | (~b & d), 0x5a827999, schedule(i));
  for (int i = 20; i < 40; ++i) round(b ^ c ^ d, 0x6ed9eba1, schedule(i));
  for (int i = 40; i < 60; ++i) round((b & c) | (b & d) | (c & d), 0x8f1bbcdc, schedule(i));
  for (int i = 60; i < 80; ++i) round(b ^ c ^ d, 0xca62c1d6, schedule(i));

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::process_blocks(const std::uint8_t* blocks, std::size_t n) {
#ifdef GFWSIM_HAVE_X86_SIMD
  if (n > 0 && sha1_dispatch_tier() == KernelTier::kSimd) {
    simd::sha1_blocks(state_.data(), blocks, n);
    return;
  }
#endif
  for (; n > 0; --n, blocks += kBlockSize) process_block(blocks);
}

void Sha1::update(ByteSpan data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0 && !data.empty()) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  process_blocks(data.data() + offset, whole);
  offset += whole * kBlockSize;
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha1::Digest Sha1::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad in place: 0x80, zeros to byte 56 of the final block (spilling into
  // an extra block when the message ends past byte 55), then the 64-bit
  // message length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    process_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be64(buffer_.data() + 56, bit_len);
  process_blocks(buffer_.data(), 1);

  Digest out{};
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state_[i]);
  reset();
  return out;
}

}  // namespace gfwsim::crypto
