#include "crypto/poly1305.h"

#include <bit>
#include <stdexcept>

#ifdef GFWSIM_HAVE_X86_SIMD
#include "crypto/simd_kernels.h"
#endif

namespace gfwsim::crypto {

namespace {

__extension__ typedef unsigned __int128 u128;

constexpr std::uint64_t kMask44 = 0xfffffffffff;  // limbs at bits 0, 44, 88
constexpr std::uint64_t kMask42 = 0x3ffffffffff;

// Splits a 16-byte block into 44/44/42-bit limbs; hibit is the 2^128
// pad bit at its position in the top limb.
inline void load_block44(const std::uint8_t* m, std::uint64_t hibit, std::uint64_t out[3]) {
  const std::uint64_t t0 = load_le64(m);
  const std::uint64_t t1 = load_le64(m + 8);
  out[0] = t0 & kMask44;
  out[1] = ((t0 >> 44) | (t1 << 20)) & kMask44;
  out[2] = ((t1 >> 24) & kMask42) | hibit;
}

// d += a * r as uncarried column sums; products at 2^132 and up fold back
// times 20 (2^132 = 4 * 2^130 = 4 * 5 mod p). Limbs under 2^46 keep a
// column of two such products far inside 128 bits.
inline void mul_add44(const std::uint64_t a[3], const std::uint64_t r[3], u128 d[3]) {
  const std::uint64_t s1 = r[1] * 20, s2 = r[2] * 20;
  d[0] += static_cast<u128>(a[0]) * r[0] + static_cast<u128>(a[1]) * s2 +
          static_cast<u128>(a[2]) * s1;
  d[1] += static_cast<u128>(a[0]) * r[1] + static_cast<u128>(a[1]) * r[0] +
          static_cast<u128>(a[2]) * s2;
  d[2] += static_cast<u128>(a[0]) * r[2] + static_cast<u128>(a[1]) * r[1] +
          static_cast<u128>(a[2]) * r[0];
}

// Partial carry of column sums into limbs of 44, 44(+1) and 42 bits; the
// top limb's overflow at 2^130 folds back times 5.
inline void carry44(const u128 d[3], std::uint64_t h[3]) {
  const u128 d1 = d[1] + static_cast<std::uint64_t>(d[0] >> 44);
  const u128 d2 = d[2] + static_cast<std::uint64_t>(d1 >> 44);
  h[0] = (static_cast<std::uint64_t>(d[0]) & kMask44) + static_cast<std::uint64_t>(d2 >> 42) * 5;
  h[1] = (static_cast<std::uint64_t>(d1) & kMask44) + (h[0] >> 44);
  h[2] = static_cast<std::uint64_t>(d2) & kMask42;
  h[0] &= kMask44;
}

// Regroups 44/44/42-bit limbs (the middle one may carry a bit past 44)
// into 26-bit ones, exactly; the top limb takes whatever is left.
inline void limbs44_to_26(const std::uint64_t in[3], std::uint32_t out[5]) {
  u128 t = in[0] + (static_cast<u128>(in[1]) << 44);
  for (int i = 0; i < 5; ++i) {
    if (i == 2) t += static_cast<u128>(in[2]) << 36;  // 2^88 = 2^52 * 2^36
    out[i] = static_cast<std::uint32_t>(i == 4 ? t : t & 0x03ffffff);
    t >>= 26;
  }
}

// The way back, for 26-bit limbs up to a bit over: what lies past 2^130
// folds back times 5, so the limbs end as carry44 leaves them.
inline void limbs26_to_44(const std::uint32_t in[5], std::uint64_t out[3]) {
  const std::uint64_t t0 = in[0] + (static_cast<std::uint64_t>(in[1]) << 26);
  const std::uint64_t t1 = (t0 >> 44) + (static_cast<std::uint64_t>(in[2]) << 8) +
                           (static_cast<std::uint64_t>(in[3]) << 34);
  const std::uint64_t t2 = (t1 >> 44) + (static_cast<std::uint64_t>(in[4]) << 16);
  out[0] = (t0 & kMask44) + (t2 >> 42) * 5;
  out[1] = (t1 & kMask44) + (out[0] >> 44);
  out[2] = t2 & kMask42;
  out[0] &= kMask44;
}

// The simd tier hands a run to a vector kernel from this many whole
// blocks up; the 2-byte length-chunk MACs and other short runs stay on
// radix 2^44 and never build r^2 and up.
constexpr std::size_t kSimdMinBlocks = 16;

}  // namespace

Poly1305::Poly1305(ByteSpan key) {
  if (key.size() != kKeySize) throw std::invalid_argument("Poly1305: key must be 32 bytes");
  tier_ = poly1305_dispatch_tier();
  if (tier_ != KernelTier::kReference) {
    // Clamp r (RFC 8439 2.5.1) and split into 44/44/42-bit limbs.
    std::uint64_t* r = r44_[0];
    load_block44(key.data(), 0, r);
    r[0] &= 0xffc0fffffff;
    r[1] &= 0xfffffc0ffff;
    r[2] &= 0x00ffffffc0f;
    powers44_ = 1;
  } else {
    // Clamp r and split into 26-bit limbs.
    const std::uint32_t t0 = load_le32(key.data());
    const std::uint32_t t1 = load_le32(key.data() + 4);
    const std::uint32_t t2 = load_le32(key.data() + 8);
    const std::uint32_t t3 = load_le32(key.data() + 12);
    std::uint32_t* r = r26_[0];
    r[0] = t0 & 0x03ffffff;
    r[1] = ((t0 >> 26) | (t1 << 6)) & 0x03ffff03;
    r[2] = ((t1 >> 20) | (t2 << 12)) & 0x03ffc0ff;
    r[3] = ((t2 >> 14) | (t3 << 18)) & 0x03f03fff;
    r[4] = (t3 >> 8) & 0x000fffff;
  }
  std::memcpy(s_, key.data() + 16, 16);
}

void Poly1305::process_block(const std::uint8_t block[16], std::uint8_t pad_bit) {
  const std::uint32_t t0 = load_le32(block);
  const std::uint32_t t1 = load_le32(block + 4);
  const std::uint32_t t2 = load_le32(block + 8);
  const std::uint32_t t3 = load_le32(block + 12);

  // h += message block (with the 2^128 pad bit).
  h_[0] += t0 & 0x03ffffff;
  h_[1] += ((t0 >> 26) | (t1 << 6)) & 0x03ffffff;
  h_[2] += ((t1 >> 20) | (t2 << 12)) & 0x03ffffff;
  h_[3] += ((t2 >> 14) | (t3 << 18)) & 0x03ffffff;
  h_[4] += (t3 >> 8) | (static_cast<std::uint32_t>(pad_bit) << 24);

  // h *= r (mod 2^130 - 5), schoolbook with 5*r folding.
  const std::uint32_t* r = r26_[0];
  const std::uint64_t r0 = r[0], r1 = r[1], r2 = r[2], r3 = r[3], r4 = r[4];
  const std::uint64_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
  const std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];

  std::uint64_t d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
  std::uint64_t d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
  std::uint64_t d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
  std::uint64_t d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
  std::uint64_t d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

  // Carry propagation.
  std::uint64_t c;
  c = d0 >> 26; d0 &= 0x03ffffff; d1 += c;
  c = d1 >> 26; d1 &= 0x03ffffff; d2 += c;
  c = d2 >> 26; d2 &= 0x03ffffff; d3 += c;
  c = d3 >> 26; d3 &= 0x03ffffff; d4 += c;
  c = d4 >> 26; d4 &= 0x03ffffff; d0 += c * 5;
  c = d0 >> 26; d0 &= 0x03ffffff; d1 += c;

  h_[0] = static_cast<std::uint32_t>(d0);
  h_[1] = static_cast<std::uint32_t>(d1);
  h_[2] = static_cast<std::uint32_t>(d2);
  h_[3] = static_cast<std::uint32_t>(d3);
  h_[4] = static_cast<std::uint32_t>(d4);
}

const std::uint64_t (*Poly1305::powers44(std::size_t k))[3] {
  // r^p = r^a * r^(p - a) with a the largest power of two below p, so
  // r^5..r^8 all wait on r^4 alone: three multiplies deep for all eight.
  for (; powers44_ < k; ++powers44_) {
    const std::size_t p = powers44_ + 1;
    const std::size_t a = std::bit_floor(p - 1);
    u128 d[3] = {};
    mul_add44(r44_[a - 1], r44_[p - a - 1], d);
    carry44(d, r44_[p - 1]);
  }
  return r44_;
}

void Poly1305::process_blocks44(const std::uint8_t* blocks, std::size_t n,
                                std::uint8_t pad_bit) {
  const std::uint64_t hibit = static_cast<std::uint64_t>(pad_bit) << 40;
  // Two blocks per step: h' = (h + m0) r^2 + m1 r. The m1 product is off
  // the serial multiply-and-carry chain, which so advances 32 bytes at a
  // time. Locals, not members, so the byte loads cannot alias the state.
  const std::uint64_t r[3] = {r44_[0][0], r44_[0][1], r44_[0][2]};
  std::uint64_t r2[3];
  if (n >= 2) std::memcpy(r2, powers44(2)[1], sizeof(r2));
  std::uint64_t h[3] = {h44_[0], h44_[1], h44_[2]};
  for (; n >= 2; n -= 2, blocks += 32) {
    std::uint64_t m0[3], m1[3];
    load_block44(blocks, hibit, m0);
    load_block44(blocks + 16, hibit, m1);
    for (int j = 0; j < 3; ++j) m0[j] += h[j];
    u128 d[3] = {};
    mul_add44(m0, r2, d);
    mul_add44(m1, r, d);
    carry44(d, h);
  }
  if (n == 1) {
    std::uint64_t m0[3];
    load_block44(blocks, hibit, m0);
    for (int j = 0; j < 3; ++j) m0[j] += h[j];
    u128 d[3] = {};
    mul_add44(m0, r, d);
    carry44(d, h);
  }
  std::memcpy(h44_, h, sizeof(h));
}

#ifdef GFWSIM_HAVE_X86_SIMD
void Poly1305::process_blocks_avx2(const std::uint8_t* blocks, std::size_t n) {
  if (!rpow_ready_) {
    const std::uint64_t(*r)[3] = powers44(4);
    for (int i = 0; i < 4; ++i) limbs44_to_26(r[i], r26_[i]);
    rpow_ready_ = true;
  }
  std::uint32_t h[5];
  limbs44_to_26(h44_, h);
  simd::poly1305_blocks_avx2(h, r26_, blocks, n);
  limbs26_to_44(h, h44_);
}
#endif

void Poly1305::absorb(const std::uint8_t* blocks, std::size_t n, std::uint8_t pad_bit) {
  if (tier_ == KernelTier::kReference) {
    for (; n > 0; --n, blocks += 16) process_block(blocks, pad_bit);
    return;
  }
#ifdef GFWSIM_HAVE_X86_SIMD
  if (tier_ == KernelTier::kSimd && n >= kSimdMinBlocks) {
    // Only update() brings runs this long, so every block has pad_bit 1;
    // the last n % 8 (IFMA) or n % 4 (AVX2) blocks stay on radix 2^44.
    std::size_t vec;
    if (cpu_features().ifma) {
      vec = n & ~std::size_t{7};
      simd::poly1305_blocks_ifma(h44_, powers44(8), blocks, vec);
    } else {
      vec = n & ~std::size_t{3};
      process_blocks_avx2(blocks, vec);
    }
    blocks += 16 * vec;
    n -= vec;
  }
#endif
  process_blocks44(blocks, n, pad_bit);
}

void Poly1305::update(ByteSpan data) {
  std::size_t offset = 0;
  if (buffer_len_ > 0 && !data.empty()) {
    const std::size_t take = std::min<std::size_t>(16 - buffer_len_, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 16) {
      absorb(buffer_, 1, 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / 16;
  absorb(data.data() + offset, whole, 1);
  offset += 16 * whole;
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_, data.data() + offset, buffer_len_);
  }
}

Poly1305::Tag Poly1305::finish() {
  if (buffer_len_ > 0) {
    // Final partial block: append 0x01 then zero-pad; no 2^128 bit.
    std::uint8_t block[16] = {};
    std::memcpy(block, buffer_, buffer_len_);
    block[buffer_len_] = 1;
    absorb(block, 1, 0);
    buffer_len_ = 0;
  }
  if (tier_ != KernelTier::kReference) {
    // Hand h to the reference tier's final reduction.
    limbs44_to_26(h44_, h_);
    std::memset(h44_, 0, sizeof(h44_));
  }
  return finish_reference();
}

Poly1305::Tag Poly1305::finish_reference() {
  std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
  std::uint32_t c;
  c = h1 >> 26; h1 &= 0x03ffffff; h2 += c;
  c = h2 >> 26; h2 &= 0x03ffffff; h3 += c;
  c = h3 >> 26; h3 &= 0x03ffffff; h4 += c;
  c = h4 >> 26; h4 &= 0x03ffffff; h0 += c * 5;
  c = h0 >> 26; h0 &= 0x03ffffff; h1 += c;

  std::uint32_t g0 = h0 + 5; c = g0 >> 26; g0 &= 0x03ffffff;
  std::uint32_t g1 = h1 + c; c = g1 >> 26; g1 &= 0x03ffffff;
  std::uint32_t g2 = h2 + c; c = g2 >> 26; g2 &= 0x03ffffff;
  std::uint32_t g3 = h3 + c; c = g3 >> 26; g3 &= 0x03ffffff;
  std::uint32_t g4 = h4 + c - (1u << 26);

  const std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);
  h3 = (h3 & ~mask) | (g3 & mask);
  h4 = (h4 & ~mask) | (g4 & mask);

  // Serialize to 128 bits and add s.
  const std::uint32_t w0 = h0 | (h1 << 26);
  const std::uint32_t w1 = (h1 >> 6) | (h2 << 20);
  const std::uint32_t w2 = (h2 >> 12) | (h3 << 14);
  const std::uint32_t w3 = (h3 >> 18) | (h4 << 8);

  std::uint64_t f;
  Tag tag{};
  f = static_cast<std::uint64_t>(w0) + load_le32(s_);
  store_le32(tag.data(), static_cast<std::uint32_t>(f));
  f = static_cast<std::uint64_t>(w1) + load_le32(s_ + 4) + (f >> 32);
  store_le32(tag.data() + 4, static_cast<std::uint32_t>(f));
  f = static_cast<std::uint64_t>(w2) + load_le32(s_ + 8) + (f >> 32);
  store_le32(tag.data() + 8, static_cast<std::uint32_t>(f));
  f = static_cast<std::uint64_t>(w3) + load_le32(s_ + 12) + (f >> 32);
  store_le32(tag.data() + 12, static_cast<std::uint32_t>(f));

  std::memset(h_, 0, sizeof(h_));
  return tag;
}

}  // namespace gfwsim::crypto
