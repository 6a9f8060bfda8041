#include "crypto/chacha20.h"

#include <algorithm>

#include "crypto/cpu.h"

#ifdef GFWSIM_HAVE_X86_SIMD
#include "crypto/simd_kernels.h"
#endif

namespace gfwsim::crypto {

namespace {

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d) {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

// L states interleaved as x[word][lane]: L = 1 is the reference tier's
// single-block core; L = 4 gives the portable tier four independent
// add/xor/rotate chains per quarter-round step (which the compiler may
// vectorize). Counter words 12/13 are per lane; the rest is shared.
template <int L>
void core_lanes(const std::array<std::uint32_t, 16>& input, const std::uint32_t w12[],
                const std::uint32_t w13[], std::uint8_t out[]) {
  std::uint32_t in[16][L], x[16][L];
  for (int l = 0; l < L; ++l) {
    for (int i = 0; i < 16; ++i) in[i][l] = input[i];
    in[12][l] = w12[l];
    in[13][l] = w13[l];
  }
  std::memcpy(x, in, sizeof(x));
#define GFWSIM_QR(a, b, c, d) \
  for (int l = 0; l < L; ++l) quarter_round(x[a][l], x[b][l], x[c][l], x[d][l]);
  for (int round = 0; round < 10; ++round) {
    GFWSIM_QR(0, 4, 8, 12) GFWSIM_QR(1, 5, 9, 13) GFWSIM_QR(2, 6, 10, 14) GFWSIM_QR(3, 7, 11, 15)
    GFWSIM_QR(0, 5, 10, 15) GFWSIM_QR(1, 6, 11, 12) GFWSIM_QR(2, 7, 8, 13) GFWSIM_QR(3, 4, 9, 14)
  }
#undef GFWSIM_QR
  for (int l = 0; l < L; ++l) {
    for (int i = 0; i < 16; ++i) store_le32(out + 64 * l + 4 * i, x[i][l] + in[i][l]);
  }
}

constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};

}  // namespace

ChaCha20::ChaCha20(ByteSpan key, ByteSpan nonce, std::uint64_t initial_counter) {
  if (key.size() != kKeySize) throw std::invalid_argument("ChaCha20: key must be 32 bytes");
  for (int i = 0; i < 4; ++i) state_[i] = kSigma[i];
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);

  if (nonce.size() != 12 && nonce.size() != 8) {
    throw std::invalid_argument("ChaCha20: nonce must be 8 or 12 bytes");
  }
  // The nonce fills the top words; the legacy 8-byte one leaves word 13
  // to the high half of its 64-bit counter.
  ietf_ = nonce.size() == 12;
  state_[12] = static_cast<std::uint32_t>(initial_counter);
  state_[13] = static_cast<std::uint32_t>(initial_counter >> 32);
  for (std::size_t i = 0; i < nonce.size() / 4; ++i) {
    state_[16 - nonce.size() / 4 + i] = load_le32(nonce.data() + 4 * i);
  }
}

void ChaCha20::refill(std::size_t want) {
  const KernelTier tier = chacha_dispatch_tier();
  std::size_t lanes = tier == KernelTier::kReference ? 1 : 4;
#ifdef GFWSIM_HAVE_X86_SIMD
  simd::ChaChaPassFn pass = nullptr;
  if (tier == KernelTier::kSimd) {
    const CpuFeatures& f = cpu_features();
    if (f.avx512) {
      const std::size_t blocks = (want + 63) / 64;
      lanes = blocks <= 4 ? 4 : blocks <= 8 ? 8 : 16;
      pass = lanes == 4   ? simd::chacha20_blocks4_avx512
             : lanes == 8 ? simd::chacha20_blocks8_avx512
                          : simd::chacha20_blocks16_avx512;
    } else if (f.avx2) {
      lanes = 8;
      pass = simd::chacha20_blocks8_avx2;
    } else {
      pass = simd::chacha20_blocks4_sse2;
    }
  }
#else
  (void)want;
#endif
  // Materialize the per-lane counter words; the IETF variant wraps its
  // 32-bit counter word, the legacy variant carries into word 13,
  // matching `lanes` sequential single-block increments.
  std::uint32_t w12[16], w13[16];
  const std::uint64_t c =
      ietf_ ? state_[12] : (static_cast<std::uint64_t>(state_[13]) << 32) | state_[12];
  for (std::size_t l = 0; l < lanes; ++l) {
    w12[l] = static_cast<std::uint32_t>(c + l);
    w13[l] = ietf_ ? state_[13] : static_cast<std::uint32_t>((c + l) >> 32);
  }
  if (lanes == 1) {
    core_lanes<1>(state_, w12, w13, keystream_.data());
#ifdef GFWSIM_HAVE_X86_SIMD
  } else if (pass != nullptr) {
    pass(state_.data(), w12, w13, keystream_.data());
#endif
  } else {
    core_lanes<4>(state_, w12, w13, keystream_.data());
  }
  state_[12] = static_cast<std::uint32_t>(c + lanes);
  if (!ietf_) state_[13] = static_cast<std::uint32_t>((c + lanes) >> 32);
  used_ = 0;
  avail_ = 64 * lanes;
}

void ChaCha20::transform(ByteSpan data, std::uint8_t* out) {
  // Drain the buffered pass, refill, repeat: keystream is consumed in
  // counter order whatever the pass length, tier or split of the input.
  std::size_t i = 0;
  while (i < data.size()) {
    if (used_ == avail_) refill(std::max(data.size() - i, expected_));
    const std::size_t take = std::min(avail_ - used_, data.size() - i);
    const std::uint8_t* ks = keystream_.data() + used_;
    std::size_t j = 0;
    for (; j + 8 <= take; j += 8) {
      std::uint64_t m, k;
      std::memcpy(&m, data.data() + i + j, 8);
      std::memcpy(&k, ks + j, 8);
      m ^= k;
      std::memcpy(out + i + j, &m, 8);
    }
    for (; j < take; ++j) out[i + j] = data[i + j] ^ ks[j];
    used_ += take;
    i += take;
    expected_ -= std::min(expected_, take);
  }
}

}  // namespace gfwsim::crypto
