#include "crypto/aes.h"

#include "crypto/cpu.h"

#ifdef GFWSIM_HAVE_X86_SIMD
#include "crypto/simd_kernels.h"
#endif

namespace gfwsim::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

// T-tables: each entry is one MixColumns column of the substituted byte,
// so a full round is four lookups + three xors per output word. Te0 holds
// [02*s, s, s, 03*s] (big-endian); Te1..Te3 are byte rotations of Te0
// matching the ShiftRows offsets.
struct TeTables {
  std::uint32_t t0[256];
  std::uint32_t t1[256];
  std::uint32_t t2[256];
  std::uint32_t t3[256];
};

constexpr TeTables make_te_tables() {
  TeTables te{};
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    const std::uint32_t w = (static_cast<std::uint32_t>(s2) << 24) |
                            (static_cast<std::uint32_t>(s) << 16) |
                            (static_cast<std::uint32_t>(s) << 8) |
                            static_cast<std::uint32_t>(s3);
    te.t0[x] = w;
    te.t1[x] = (w >> 8) | (w << 24);
    te.t2[x] = (w >> 16) | (w << 16);
    te.t3[x] = (w >> 24) | (w << 8);
  }
  return te;
}

constexpr TeTables kTe = make_te_tables();

// out = a ^ b over 8 bytes; any of the three may alias.
inline void xor8(std::uint8_t* out, const std::uint8_t* a, const std::uint8_t* b) {
  std::uint64_t x, y;
  std::memcpy(&x, a, 8);
  std::memcpy(&y, b, 8);
  x ^= y;
  std::memcpy(out, &x, 8);
}

}  // namespace

Aes::Aes(ByteSpan key) {
  switch (key.size()) {
    case 16: rounds_ = 10; break;
    case 24: rounds_ = 12; break;
    case 32: rounds_ = 14; break;
    default: throw std::invalid_argument("Aes: key must be 16, 24, or 32 bytes");
  }
  expand_key(key);
}

// FIPS 197 section 5.2 on big-endian words: w[i] = w[i-nk] ^ temp, with
// temp = SubWord(RotWord(w[i-1])) ^ Rcon at each multiple of nk. Building
// the words in registers and storing the bytes once avoids reading each
// word back from four byte stores.
void Aes::expand_key(ByteSpan key) {
  const std::size_t nk = key.size() / 4;          // key words
  const std::size_t total_words = 4 * (rounds_ + 1);
  const auto sub_word = [](std::uint32_t w) {
    return (static_cast<std::uint32_t>(kSbox[w >> 24]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[w & 0xff]);
  };
  std::uint32_t* w = round_keys_w_.data();
  for (std::size_t i = 0; i < nk; ++i) w[i] = load_be32(key.data() + 4 * i);
  std::size_t pos = 0;    // i % nk
  std::size_t round = 1;  // i / nk
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = w[i - 1];
    if (pos == 0) {
      // RotWord + SubWord + Rcon.
      temp = sub_word((temp << 8) | (temp >> 24)) ^
             (static_cast<std::uint32_t>(kRcon[round]) << 24);
    } else if (nk > 6 && pos == 4) {
      // AES-256 extra SubWord.
      temp = sub_word(temp);
    }
    w[i] = w[i - nk] ^ temp;
    if (++pos == nk) {
      pos = 0;
      ++round;
    }
  }
  for (std::size_t i = 0; i < total_words; ++i) store_be32(round_keys_.data() + 4 * i, w[i]);
}

void Aes::encrypt_block(const std::uint8_t in[kBlockSize], std::uint8_t out[kBlockSize]) const {
  switch (aes_dispatch_tier()) {
#ifdef GFWSIM_HAVE_X86_SIMD
    case KernelTier::kSimd:
      simd::aes_encrypt_blocks(round_keys_.data(), rounds_, in, out, 1);
      return;
#endif
    case KernelTier::kReference:
      encrypt_block_reference(in, out);
      return;
    default:
      encrypt_ttable(in, out);
      return;
  }
}

void Aes::encrypt_blocks(const std::uint8_t* in, std::uint8_t* out, std::size_t n) const {
  switch (aes_dispatch_tier()) {
#ifdef GFWSIM_HAVE_X86_SIMD
    case KernelTier::kSimd:
      simd::aes_encrypt_blocks(round_keys_.data(), rounds_, in, out, n);
      return;
#endif
    case KernelTier::kReference:
      for (std::size_t i = 0; i < n; ++i) {
        encrypt_block_reference(in + kBlockSize * i, out + kBlockSize * i);
      }
      return;
    default:
      while (n >= 2) {
        encrypt2_ttable(in, out);
        in += 2 * kBlockSize;
        out += 2 * kBlockSize;
        n -= 2;
      }
      if (n > 0) encrypt_ttable(in, out);
      return;
  }
}

void Aes::encrypt_ttable(const std::uint8_t* in, std::uint8_t* out) const {
  const std::uint32_t* rk = round_keys_w_.data();
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  rk += 4;

  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const std::uint32_t t0 = kTe.t0[s0 >> 24] ^ kTe.t1[(s1 >> 16) & 0xff] ^
                             kTe.t2[(s2 >> 8) & 0xff] ^ kTe.t3[s3 & 0xff] ^ rk[0];
    const std::uint32_t t1 = kTe.t0[s1 >> 24] ^ kTe.t1[(s2 >> 16) & 0xff] ^
                             kTe.t2[(s3 >> 8) & 0xff] ^ kTe.t3[s0 & 0xff] ^ rk[1];
    const std::uint32_t t2 = kTe.t0[s2 >> 24] ^ kTe.t1[(s3 >> 16) & 0xff] ^
                             kTe.t2[(s0 >> 8) & 0xff] ^ kTe.t3[s1 & 0xff] ^ rk[2];
    const std::uint32_t t3 = kTe.t0[s3 >> 24] ^ kTe.t1[(s0 >> 16) & 0xff] ^
                             kTe.t2[(s1 >> 8) & 0xff] ^ kTe.t3[s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  const auto sub = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                      std::uint32_t d) {
    return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[d & 0xff]);
  };
  store_be32(out, sub(s0, s1, s2, s3) ^ rk[0]);
  store_be32(out + 4, sub(s1, s2, s3, s0) ^ rk[1]);
  store_be32(out + 8, sub(s2, s3, s0, s1) ^ rk[2]);
  store_be32(out + 12, sub(s3, s0, s1, s2) ^ rk[3]);
}

// Two T-table blocks per pass: the eight state words give the scalar
// pipeline two independent lookup/xor chains to overlap, which the
// single-block kernel's four-word dependency chain cannot.
void Aes::encrypt2_ttable(const std::uint8_t* in, std::uint8_t* out) const {
  const std::uint32_t* rk = round_keys_w_.data();
  std::uint32_t a0 = load_be32(in) ^ rk[0];
  std::uint32_t a1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t a2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t a3 = load_be32(in + 12) ^ rk[3];
  std::uint32_t b0 = load_be32(in + 16) ^ rk[0];
  std::uint32_t b1 = load_be32(in + 20) ^ rk[1];
  std::uint32_t b2 = load_be32(in + 24) ^ rk[2];
  std::uint32_t b3 = load_be32(in + 28) ^ rk[3];
  rk += 4;

  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const std::uint32_t ta0 = kTe.t0[a0 >> 24] ^ kTe.t1[(a1 >> 16) & 0xff] ^
                              kTe.t2[(a2 >> 8) & 0xff] ^ kTe.t3[a3 & 0xff] ^ rk[0];
    const std::uint32_t tb0 = kTe.t0[b0 >> 24] ^ kTe.t1[(b1 >> 16) & 0xff] ^
                              kTe.t2[(b2 >> 8) & 0xff] ^ kTe.t3[b3 & 0xff] ^ rk[0];
    const std::uint32_t ta1 = kTe.t0[a1 >> 24] ^ kTe.t1[(a2 >> 16) & 0xff] ^
                              kTe.t2[(a3 >> 8) & 0xff] ^ kTe.t3[a0 & 0xff] ^ rk[1];
    const std::uint32_t tb1 = kTe.t0[b1 >> 24] ^ kTe.t1[(b2 >> 16) & 0xff] ^
                              kTe.t2[(b3 >> 8) & 0xff] ^ kTe.t3[b0 & 0xff] ^ rk[1];
    const std::uint32_t ta2 = kTe.t0[a2 >> 24] ^ kTe.t1[(a3 >> 16) & 0xff] ^
                              kTe.t2[(a0 >> 8) & 0xff] ^ kTe.t3[a1 & 0xff] ^ rk[2];
    const std::uint32_t tb2 = kTe.t0[b2 >> 24] ^ kTe.t1[(b3 >> 16) & 0xff] ^
                              kTe.t2[(b0 >> 8) & 0xff] ^ kTe.t3[b1 & 0xff] ^ rk[2];
    const std::uint32_t ta3 = kTe.t0[a3 >> 24] ^ kTe.t1[(a0 >> 16) & 0xff] ^
                              kTe.t2[(a1 >> 8) & 0xff] ^ kTe.t3[a2 & 0xff] ^ rk[3];
    const std::uint32_t tb3 = kTe.t0[b3 >> 24] ^ kTe.t1[(b0 >> 16) & 0xff] ^
                              kTe.t2[(b1 >> 8) & 0xff] ^ kTe.t3[b2 & 0xff] ^ rk[3];
    a0 = ta0; a1 = ta1; a2 = ta2; a3 = ta3;
    b0 = tb0; b1 = tb1; b2 = tb2; b3 = tb3;
  }

  const auto sub = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                      std::uint32_t d) {
    return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[d & 0xff]);
  };
  store_be32(out, sub(a0, a1, a2, a3) ^ rk[0]);
  store_be32(out + 4, sub(a1, a2, a3, a0) ^ rk[1]);
  store_be32(out + 8, sub(a2, a3, a0, a1) ^ rk[2]);
  store_be32(out + 12, sub(a3, a0, a1, a2) ^ rk[3]);
  store_be32(out + 16, sub(b0, b1, b2, b3) ^ rk[0]);
  store_be32(out + 20, sub(b1, b2, b3, b0) ^ rk[1]);
  store_be32(out + 24, sub(b2, b3, b0, b1) ^ rk[2]);
  store_be32(out + 28, sub(b3, b0, b1, b2) ^ rk[3]);
}

void Aes::encrypt_block_reference(const std::uint8_t in[kBlockSize],
                                  std::uint8_t out[kBlockSize]) const {
  std::uint8_t state[16];
  for (int i = 0; i < 16; ++i) state[i] = in[i] ^ round_keys_[i];

  for (int round = 1; round <= rounds_; ++round) {
    // SubBytes.
    for (auto& b : state) b = kSbox[b];

    // ShiftRows (state is column-major: state[4*col + row]).
    std::uint8_t t;
    t = state[1]; state[1] = state[5]; state[5] = state[9]; state[9] = state[13]; state[13] = t;
    t = state[2]; state[2] = state[10]; state[10] = t;
    t = state[6]; state[6] = state[14]; state[14] = t;
    t = state[15]; state[15] = state[11]; state[11] = state[7]; state[7] = state[3]; state[3] = t;

    // MixColumns, skipped in the final round.
    if (round != rounds_) {
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = state + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        const std::uint8_t all = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
        col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
        col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
        col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
        col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
      }
    }

    // AddRoundKey.
    const std::uint8_t* rk = round_keys_.data() + 16 * round;
    for (int i = 0; i < 16; ++i) state[i] ^= rk[i];
  }
  std::memcpy(out, state, 16);
}

// ---- CTR ------------------------------------------------------------------

AesCtr::AesCtr(ByteSpan key, ByteSpan iv) : aes_(key) {
  if (iv.size() != Aes::kBlockSize) {
    throw std::invalid_argument("AesCtr: IV must be 16 bytes");
  }
  std::memcpy(counter_.data(), iv.data(), iv.size());
}

void AesCtr::refill() {
  keystream_ = aes_.encrypt_block(counter_);
  // Big-endian increment over the whole block (OpenSSL semantics).
  for (int i = Aes::kBlockSize - 1; i >= 0; --i) {
    if (++counter_[i] != 0) break;
  }
  used_ = 0;
}

void AesCtr::transform(ByteSpan data, std::uint8_t* out) {
  std::size_t i = 0;
  // Drain any keystream left over from a previous (unaligned) call.
  while (i < data.size() && used_ < Aes::kBlockSize) {
    out[i] = data[i] ^ keystream_[used_++];
    ++i;
  }
  // Whole blocks: materialize up to 8 counter blocks per pass into a
  // stack scratch buffer, encrypt them in one batched call (8 interleaved
  // AESENC chains on the SIMD tier), and xor word-wise, leaving
  // keystream_/used_ untouched (fully consumed).
  std::size_t whole = (data.size() - i) / Aes::kBlockSize;
  while (whole > 0) {
    const std::size_t n = whole < 8 ? whole : 8;
    std::uint8_t ctrs[8 * Aes::kBlockSize];
    for (std::size_t b = 0; b < n; ++b) {
      std::memcpy(ctrs + Aes::kBlockSize * b, counter_.data(), Aes::kBlockSize);
      for (int j = Aes::kBlockSize - 1; j >= 0; --j) {
        if (++counter_[j] != 0) break;
      }
    }
    std::uint8_t ks[8 * Aes::kBlockSize];
    aes_.encrypt_blocks(ctrs, ks, n);
    for (std::size_t w = 0; w < Aes::kBlockSize * n; w += 8) {
      xor8(out + i + w, data.data() + i + w, ks + w);
    }
    i += Aes::kBlockSize * n;
    whole -= n;
  }
  // Tail shorter than a block: fall back to the buffered keystream.
  while (i < data.size()) {
    if (used_ == Aes::kBlockSize) refill();
    out[i] = data[i] ^ keystream_[used_++];
    ++i;
  }
}

// ---- CFB128 ---------------------------------------------------------------

AesCfb::AesCfb(ByteSpan key, ByteSpan iv) : aes_(key) {
  if (iv.size() != Aes::kBlockSize) {
    throw std::invalid_argument("AesCfb: IV must be 16 bytes");
  }
  std::memcpy(shift_register_.data(), iv.data(), iv.size());
}

void AesCfb::encrypt(ByteSpan plaintext, std::uint8_t* out) {
  const std::size_t n = plaintext.size();
  std::size_t i = 0;
  // Finish a block left partial by the previous call.
  for (; i < n && used_ < Aes::kBlockSize; ++i, ++used_) {
    const std::uint8_t c = plaintext[i] ^ keystream_[used_];
    shift_register_[used_] = c;  // ciphertext feeds back
    out[i] = c;
  }
  // Whole blocks: each keystream block is E(previous ciphertext), so
  // encryption stays one block at a time, but the xor and the feedback
  // go 8 bytes at a time.
  for (; n - i >= Aes::kBlockSize; i += Aes::kBlockSize) {
    std::uint8_t ks[Aes::kBlockSize];
    aes_.encrypt_block(shift_register_.data(), ks);
    xor8(shift_register_.data(), plaintext.data() + i, ks);
    xor8(shift_register_.data() + 8, plaintext.data() + i + 8, ks + 8);
    std::memcpy(out + i, shift_register_.data(), Aes::kBlockSize);
  }
  // A partial block at the end buffers its keystream for the next call.
  for (; i < n; ++i, ++used_) {
    if (used_ == Aes::kBlockSize) {
      keystream_ = aes_.encrypt_block(shift_register_);
      used_ = 0;
    }
    const std::uint8_t c = plaintext[i] ^ keystream_[used_];
    shift_register_[used_] = c;
    out[i] = c;
  }
}

void AesCfb::decrypt(ByteSpan ciphertext, std::uint8_t* out) {
  const std::size_t n = ciphertext.size();
  std::size_t i = 0;
  for (; i < n && used_ < Aes::kBlockSize; ++i, ++used_) {
    const std::uint8_t c = ciphertext[i];
    out[i] = c ^ keystream_[used_];
    shift_register_[used_] = c;
  }
  // Whole blocks: keystream block k is E(C_{k-1}), and every C_{k-1} is
  // already in hand, so up to 8 blocks go through one batched
  // encrypt_blocks call. The inputs are copied out first because `out`
  // may be `ciphertext` itself.
  std::size_t whole = (n - i) / Aes::kBlockSize;
  while (whole > 0) {
    const std::size_t b = whole < 8 ? whole : 8;
    const std::size_t len = Aes::kBlockSize * b;
    std::uint8_t feed[8 * Aes::kBlockSize];
    std::memcpy(feed, shift_register_.data(), Aes::kBlockSize);
    std::memcpy(feed + Aes::kBlockSize, ciphertext.data() + i, len - Aes::kBlockSize);
    std::memcpy(shift_register_.data(), ciphertext.data() + i + len - Aes::kBlockSize,
                Aes::kBlockSize);
    std::uint8_t ks[8 * Aes::kBlockSize];
    aes_.encrypt_blocks(feed, ks, b);
    for (std::size_t w = 0; w < len; w += 8) {
      xor8(out + i + w, ciphertext.data() + i + w, ks + w);
    }
    i += len;
    whole -= b;
  }
  for (; i < n; ++i, ++used_) {
    if (used_ == Aes::kBlockSize) {
      keystream_ = aes_.encrypt_block(shift_register_);
      used_ = 0;
    }
    const std::uint8_t c = ciphertext[i];
    out[i] = c ^ keystream_[used_];
    shift_register_[used_] = c;
  }
}

}  // namespace gfwsim::crypto
