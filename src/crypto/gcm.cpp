#include "crypto/gcm.h"

#include <algorithm>

#ifdef GFWSIM_HAVE_X86_SIMD
#include "crypto/simd_kernels.h"
#endif

namespace gfwsim::crypto {

namespace {

std::uint64_t load_hi(const std::uint8_t* p) { return load_be64(p); }
std::uint64_t load_lo(const std::uint8_t* p) { return load_be64(p + 8); }

// Multiplication in GF(2^128) with the GCM bit order: X * Y where bit 0 is
// the most significant bit and the reduction polynomial is
// x^128 + x^7 + x^2 + x + 1 (R = 0xE1 << 120). This is the retained
// bit-by-bit reference kernel — 128 shift/conditional-xor steps per call —
// behind the reference tier, ghash_reference(), and the one-off H^2..H^4
// derivation of the portable tier.
void gf_mul_reference(std::uint64_t& zhi, std::uint64_t& zlo, std::uint64_t xhi,
                      std::uint64_t xlo, std::uint64_t yhi, std::uint64_t ylo) {
  std::uint64_t rhi = 0, rlo = 0;
  std::uint64_t vhi = xhi, vlo = xlo;
  for (int half = 0; half < 2; ++half) {
    const std::uint64_t bits = half == 0 ? yhi : ylo;
    for (int i = 63; i >= 0; --i) {
      // Masks instead of branches: the bits are key material.
      const std::uint64_t take = 0 - ((bits >> i) & 1);
      rhi ^= vhi & take;
      rlo ^= vlo & take;
      const std::uint64_t carry = 0xe100000000000000ull & (0 - (vlo & 1));
      vlo = (vlo >> 1) | (vhi << 63);
      vhi = (vhi >> 1) ^ carry;
    }
  }
  zhi = rhi;
  zlo = rlo;
}

// Per-byte reduction constants for the 8-bit table walk: entry r is the
// contribution of the byte shifted out of the low end, reduced mod P and
// folded into the top 16 bits. Computed by running the 1-bit
// shift-and-reduce rule eight times, so the constants agree with the
// reference kernel by construction.
struct Rem8Table {
  std::uint16_t v[256];
};

constexpr Rem8Table make_rem8_table() {
  Rem8Table t{};
  for (int r = 0; r < 256; ++r) {
    std::uint64_t hi = 0;
    std::uint64_t lo = static_cast<std::uint64_t>(r);
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t carry = 0xe100000000000000ull & (0 - (lo & 1));
      lo = (hi << 63) | (lo >> 1);
      hi = (hi >> 1) ^ carry;
    }
    t.v[r] = static_cast<std::uint16_t>(hi >> 48);
  }
  return t;
}

constexpr Rem8Table kRem8bit = make_rem8_table();

void inc32(Aes::Block& counter) {
  std::uint32_t c = load_be32(counter.data() + 12);
  store_be32(counter.data() + 12, c + 1);
}

// J0 for a 96-bit IV: nonce || 0^31 || 1.
Aes::Block initial_counter(ByteSpan nonce) {
  Aes::Block j0{};
  std::memcpy(j0.data(), nonce.data(), nonce.size());
  j0[15] = 1;
  return j0;
}

// out = a ^ b over one 16-byte block, as two 64-bit word xors.
inline void xor_block16(std::uint8_t* out, const std::uint8_t* a, const std::uint8_t* b) {
  std::uint64_t a0, a1, b0, b1;
  std::memcpy(&a0, a, 8);
  std::memcpy(&a1, a + 8, 8);
  std::memcpy(&b0, b, 8);
  std::memcpy(&b1, b + 8, 8);
  a0 ^= b0;
  a1 ^= b1;
  std::memcpy(out, &a0, 8);
  std::memcpy(out + 8, &a1, 8);
}

}  // namespace

AesGcm::AesGcm(ByteSpan key) : aes_(key), tier_(ghash_dispatch_tier()) {
  const Block zero{};
  h_ = aes_.encrypt_block(zero);
  if (tier_ == KernelTier::kReference) return;

  const U128 h{load_be64(h_.data()), load_be64(h_.data() + 8)};
#ifdef GFWSIM_HAVE_X86_SIMD
  if (tier_ == KernelTier::kSimd) {
    // H^2..H^4 from the fold kernel itself: with every key slot set to
    // H, folding Y over four zero blocks gives Y*H. GF(2^128)
    // multiplication is exact, so this is the same key material the
    // reference multiply would give.
    simd::GhashU128 key_pow[4] = {{h.hi, h.lo}, {h.hi, h.lo}, {h.hi, h.lo}, {h.hi, h.lo}};
    simd::ghash_init(key_pow, ghash_key_x86_);
    const std::uint8_t zero_blocks[64] = {};
    U128 y = h;
    for (int i = 2; i >= 0; --i) {  // key_pow[i] = H^(4-i)
      simd::ghash_fold4(y.hi, y.lo, zero_blocks, ghash_key_x86_);
      key_pow[i] = {y.hi, y.lo};
    }
    simd::ghash_init(key_pow, ghash_key_x86_);
    return;
  }
#endif
  // The portable tier: H^1..H^4 by the reference multiply (three calls
  // per key), so no tier builds a table just to take powers.
  U128 hpow[4];
  hpow[0] = h;
  for (int i = 1; i < 4; ++i) {
    gf_mul_reference(hpow[i].hi, hpow[i].lo, hpow[i - 1].hi, hpow[i - 1].lo, h.hi, h.lo);
  }
  auto tables = std::make_unique<HTables>();
  fill_htable(tables->h1, hpow[0]);
  fill_htable(tables->h2, hpow[1]);
  fill_htable(tables->h3, hpow[2]);
  fill_htable(tables->h4, hpow[3]);
  tables_ = std::move(tables);
}

// Shoup 8-bit table: table[0x80] = H, table[0x40] = H*x, ..., table[1] =
// H*x^7 (multiplying by x is a right shift in the GCM bit order), and the
// remaining 247 entries by linearity.
void AesGcm::fill_htable(HTable& table, U128 h) {
  table[0x80] = h;
  for (int i = 0x40; i > 0; i >>= 1) {
    const std::uint64_t carry = 0xe100000000000000ull & (0 - (h.lo & 1));
    h.lo = (h.hi << 63) | (h.lo >> 1);
    h.hi = (h.hi >> 1) ^ carry;
    table[i] = h;
  }
  for (int i = 2; i < 256; i <<= 1) {
    for (int j = 1; j < i; ++j) {
      table[i + j] = {table[i].hi ^ table[j].hi, table[i].lo ^ table[j].lo};
    }
  }
}

AesGcm::U128 AesGcm::gmult_quad(U128 a, U128 b, U128 c, U128 d) const {
  std::uint8_t ai[16], bi[16], ci[16], di[16];
  store_be64(ai, a.hi);
  store_be64(ai + 8, a.lo);
  store_be64(bi, b.hi);
  store_be64(bi + 8, b.lo);
  store_be64(ci, c.hi);
  store_be64(ci + 8, c.lo);
  store_be64(di, d.hi);
  store_be64(di + 8, d.lo);

  const HTables& t = *tables_;
  std::uint64_t zahi = t.h4[ai[15]].hi, zalo = t.h4[ai[15]].lo;
  std::uint64_t zbhi = t.h3[bi[15]].hi, zblo = t.h3[bi[15]].lo;
  std::uint64_t zchi = t.h2[ci[15]].hi, zclo = t.h2[ci[15]].lo;
  std::uint64_t zdhi = t.h1[di[15]].hi, zdlo = t.h1[di[15]].lo;
  for (int cnt = 14; cnt >= 0; --cnt) {
    const unsigned rem_a = static_cast<unsigned>(zalo) & 0xff;
    const unsigned rem_b = static_cast<unsigned>(zblo) & 0xff;
    const unsigned rem_c = static_cast<unsigned>(zclo) & 0xff;
    const unsigned rem_d = static_cast<unsigned>(zdlo) & 0xff;
    zalo = (zahi << 56) | (zalo >> 8);
    zblo = (zbhi << 56) | (zblo >> 8);
    zclo = (zchi << 56) | (zclo >> 8);
    zdlo = (zdhi << 56) | (zdlo >> 8);
    zahi = (zahi >> 8) ^ (static_cast<std::uint64_t>(kRem8bit.v[rem_a]) << 48);
    zbhi = (zbhi >> 8) ^ (static_cast<std::uint64_t>(kRem8bit.v[rem_b]) << 48);
    zchi = (zchi >> 8) ^ (static_cast<std::uint64_t>(kRem8bit.v[rem_c]) << 48);
    zdhi = (zdhi >> 8) ^ (static_cast<std::uint64_t>(kRem8bit.v[rem_d]) << 48);
    zahi ^= t.h4[ai[cnt]].hi;
    zalo ^= t.h4[ai[cnt]].lo;
    zbhi ^= t.h3[bi[cnt]].hi;
    zblo ^= t.h3[bi[cnt]].lo;
    zchi ^= t.h2[ci[cnt]].hi;
    zclo ^= t.h2[ci[cnt]].lo;
    zdhi ^= t.h1[di[cnt]].hi;
    zdlo ^= t.h1[di[cnt]].lo;
  }
  return {zahi ^ zbhi ^ zchi ^ zdhi, zalo ^ zblo ^ zclo ^ zdlo};
}

AesGcm::U128 AesGcm::fold4(U128 y, const std::uint8_t blocks[64]) const {
#ifdef GFWSIM_HAVE_X86_SIMD
  if (tier_ == KernelTier::kSimd) {
    simd::ghash_fold4(y.hi, y.lo, blocks, ghash_key_x86_);
    return y;
  }
#endif
  const U128 a{y.hi ^ load_hi(blocks), y.lo ^ load_lo(blocks)};
  const U128 b{load_hi(blocks + 16), load_lo(blocks + 16)};
  const U128 c{load_hi(blocks + 32), load_lo(blocks + 32)};
  const U128 d{load_hi(blocks + 48), load_lo(blocks + 48)};
  return gmult_quad(a, b, c, d);
}

AesGcm::U128 AesGcm::absorb(U128 y, ByteSpan data) const {
  std::size_t offset = 0;
  if (tier_ == KernelTier::kReference) {
    const std::uint64_t hhi = load_be64(h_.data());
    const std::uint64_t hlo = load_be64(h_.data() + 8);
    while (offset < data.size()) {
      std::uint8_t block[16] = {};
      const std::size_t take = std::min<std::size_t>(16, data.size() - offset);
      std::memcpy(block, data.data() + offset, take);
      y.hi ^= load_hi(block);
      y.lo ^= load_lo(block);
      gf_mul_reference(y.hi, y.lo, y.hi, y.lo, hhi, hlo);
      offset += take;
    }
    return y;
  }
  // Four blocks per reduction: Y' = (Y ^ c1)*H^4 ^ c2*H^3 ^ c3*H^2 ^
  // c4*H. The regrouping is exactly ((((Y ^ c1)*H ^ c2)*H ^ c3)*H ^
  // c4)*H, but the four multiplies have no data dependency on each
  // other, so their serial reduction chains overlap (and the SIMD tier
  // amortizes one PCLMUL reduction over the whole 64 bytes).
  while (data.size() - offset >= 64) {
    y = fold4(y, data.data() + offset);
    offset += 64;
  }
  const std::size_t rem = data.size() - offset;
  if (rem == 0) return y;
  // The 1-3 blocks left (the last zero-padded) go right-aligned into
  // four zero blocks with Y folded into the first real one, so the fold
  // yields 0*H^4 ^ (Y ^ c1)*H^k ^ ... ^ ck*H: the k sequential steps,
  // exactly, by linearity.
  std::uint8_t blocks[64] = {};
  std::uint8_t* first = blocks + 16 * (4 - (rem + 15) / 16);
  std::memcpy(first, data.data() + offset, rem);
  store_be64(first, load_hi(first) ^ y.hi);
  store_be64(first + 8, load_lo(first) ^ y.lo);
  return fold4({}, blocks);
}

AesGcm::Block AesGcm::finish(U128 y, std::size_t aad_len, std::size_t ct_len) const {
  std::uint8_t lengths[16];
  store_be64(lengths, static_cast<std::uint64_t>(aad_len) * 8);
  store_be64(lengths + 8, static_cast<std::uint64_t>(ct_len) * 8);
  y = absorb(y, ByteSpan(lengths, sizeof lengths));
  Block out{};
  store_be64(out.data(), y.hi);
  store_be64(out.data() + 8, y.lo);
  return out;
}

AesGcm::Block AesGcm::ghash(ByteSpan aad, ByteSpan ciphertext) const {
  return finish(absorb(absorb({}, aad), ciphertext), aad.size(), ciphertext.size());
}

AesGcm::Block AesGcm::ghash_reference(ByteSpan aad, ByteSpan ciphertext) const {
  const std::uint64_t hhi = load_be64(h_.data());
  const std::uint64_t hlo = load_be64(h_.data() + 8);
  std::uint64_t yhi = 0, ylo = 0;

  const auto absorb = [&](ByteSpan data) {
    std::size_t offset = 0;
    while (offset < data.size()) {
      std::uint8_t block[16] = {};
      const std::size_t take = std::min<std::size_t>(16, data.size() - offset);
      std::memcpy(block, data.data() + offset, take);
      yhi ^= load_hi(block);
      ylo ^= load_lo(block);
      gf_mul_reference(yhi, ylo, yhi, ylo, hhi, hlo);
      offset += take;
    }
  };

  absorb(aad);
  absorb(ciphertext);

  yhi ^= static_cast<std::uint64_t>(aad.size()) * 8;
  ylo ^= static_cast<std::uint64_t>(ciphertext.size()) * 8;
  gf_mul_reference(yhi, ylo, yhi, ylo, hhi, hlo);

  Block out{};
  store_be64(out.data(), yhi);
  store_be64(out.data() + 8, ylo);
  return out;
}

void AesGcm::gctr(Block counter, ByteSpan in, std::uint8_t* out) const {
  std::uint8_t keystream[16];
  std::size_t offset = 0;
  while (in.size() - offset >= 16) {
    aes_.encrypt_block(counter.data(), keystream);
    inc32(counter);
    xor_block16(out + offset, in.data() + offset, keystream);
    offset += 16;
  }
  if (offset < in.size()) {
    aes_.encrypt_block(counter.data(), keystream);
    for (std::size_t i = 0; offset + i < in.size(); ++i) {
      out[offset + i] = in[offset + i] ^ keystream[i];
    }
  }
}

AesGcm::U128 AesGcm::gctr_ghash(Block counter, ByteSpan in, std::uint8_t* out,
                                bool absorb_output, U128 y) const {
  std::size_t offset = 0;
  // Main loop: eight counter blocks per batched AES call (eight
  // interleaved AESENC chains on the SIMD tier) and two aggregated
  // four-block GHASH folds over the produced/consumed ciphertext. The
  // AES batch for the next pass issues while the previous fold's
  // reduction chain is still retiring. With the GHASH tier capped at
  // reference this loop is skipped and the tail path below does the
  // whole buffer per-block, matching that tier's semantics.
  const bool ref_ghash = tier_ == KernelTier::kReference;
  while (!ref_ghash && in.size() - offset >= 128) {
    std::uint8_t ctrs[128];
    for (int b = 0; b < 8; ++b) {
      std::memcpy(ctrs + 16 * b, counter.data(), 16);
      inc32(counter);
    }
    std::uint8_t ks[128];
    aes_.encrypt_blocks(ctrs, ks, 8);
    for (int w = 0; w < 16; ++w) {
      std::uint64_t d, k;
      std::memcpy(&d, in.data() + offset + 8 * w, 8);
      std::memcpy(&k, ks + 8 * w, 8);
      d ^= k;
      std::memcpy(out + offset + 8 * w, &d, 8);
    }
    const std::uint8_t* h = absorb_output ? out + offset : in.data() + offset;
    y = fold4(y, h);
    y = fold4(y, h + 64);
    offset += 128;
  }
  // Tail: CTR the remaining bytes in batches of up to eight counter
  // blocks, then fold the remaining ciphertext through absorb (which
  // re-applies the per-chunk-size paths and the final zero-padding).
  const std::size_t tail_start = offset;
  while (offset < in.size()) {
    const std::size_t rem = in.size() - offset;
    const std::size_t n = std::min<std::size_t>(8, (rem + 15) / 16);
    std::uint8_t ctrs[128];
    for (std::size_t b = 0; b < n; ++b) {
      std::memcpy(ctrs + 16 * b, counter.data(), 16);
      inc32(counter);
    }
    std::uint8_t ks[128];
    aes_.encrypt_blocks(ctrs, ks, n);
    const std::size_t take = std::min(rem, 16 * n);
    std::size_t i = 0;
    for (; i + 8 <= take; i += 8) {
      std::uint64_t d, k;
      std::memcpy(&d, in.data() + offset + i, 8);
      std::memcpy(&k, ks + i, 8);
      d ^= k;
      std::memcpy(out + offset + i, &d, 8);
    }
    for (; i < take; ++i) out[offset + i] = in[offset + i] ^ ks[i];
    offset += take;
  }
  const std::size_t tail_len = in.size() - tail_start;
  if (tail_len > 0) {
    const std::uint8_t* h = absorb_output ? out + tail_start : in.data() + tail_start;
    y = absorb(y, ByteSpan(h, tail_len));
  }
  return y;
}

void AesGcm::seal_into(ByteSpan nonce, ByteSpan plaintext, std::uint8_t* out,
                       ByteSpan aad) const {
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("AesGcm: nonce must be 12 bytes");
  }
  const Block j0 = initial_counter(nonce);
  Block counter = j0;
  inc32(counter);
  const U128 y = gctr_ghash(counter, plaintext, out, /*absorb_output=*/true, absorb({}, aad));
  const Block s = finish(y, aad.size(), plaintext.size());
  gctr(j0, ByteSpan(s.data(), s.size()), out + plaintext.size());
}

Bytes AesGcm::seal(ByteSpan nonce, ByteSpan plaintext, ByteSpan aad) const {
  Bytes out(plaintext.size() + kTagSize);
  seal_into(nonce, plaintext, out.data(), aad);
  return out;
}

bool AesGcm::open_into(ByteSpan nonce, ByteSpan sealed, std::uint8_t* out,
                       ByteSpan aad) const {
  if (nonce.size() != kNonceSize || sealed.size() < kTagSize) return false;
  const std::size_t ct_len = sealed.size() - kTagSize;
  const Block j0 = initial_counter(nonce);
  Block counter = j0;
  inc32(counter);
  // Decrypt and authenticate in one fused pass; the plaintext is wiped
  // if the tag does not verify.
  const U128 y =
      gctr_ghash(counter, sealed.first(ct_len), out, /*absorb_output=*/false, absorb({}, aad));
  const Block s = finish(y, aad.size(), ct_len);
  std::uint8_t expected_tag[kTagSize];
  gctr(j0, ByteSpan(s.data(), s.size()), expected_tag);
  if (ct_equal(ByteSpan(expected_tag, kTagSize), sealed.subspan(ct_len))) return true;
  std::fill_n(out, ct_len, std::uint8_t{0});
  return false;
}

std::optional<Bytes> AesGcm::open(ByteSpan nonce, ByteSpan sealed, ByteSpan aad) const {
  if (sealed.size() < kTagSize) return std::nullopt;
  Bytes plaintext(sealed.size() - kTagSize);
  if (!open_into(nonce, sealed, plaintext.data(), aad)) return std::nullopt;
  return plaintext;
}

}  // namespace gfwsim::crypto
