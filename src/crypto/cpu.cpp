#include "crypto/cpu.h"

namespace gfwsim::crypto {

namespace detail {
std::atomic<int> g_tier_cap{static_cast<int>(KernelTier::kSimd)};
}  // namespace detail

const char* tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kReference: return "reference";
    case KernelTier::kPortable: return "portable";
    case KernelTier::kSimd: return "simd";
  }
  return "?";
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#ifdef GFWSIM_HAVE_X86_SIMD
    // The compound gates match what the kernels are compiled with:
    // the AES kernel needs SSE2 loads/stores around AESENC, and the
    // PCLMUL GHASH uses SSSE3 pshufb for its bit reflection, and the
    // SHA-NI kernel byte-swaps with pshufb and reads E with pextrd.
    // The AVX-512 ChaCha kernels run xmm and ymm widths too (VL), and
    // the IFMA kernel is an AVX-512 one.
    f.sse2 = __builtin_cpu_supports("sse2");
    f.aesni = __builtin_cpu_supports("aes") && f.sse2;
    f.pclmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("ssse3");
    f.avx2 = __builtin_cpu_supports("avx2");
    f.sha = __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
    f.avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl");
    f.ifma = __builtin_cpu_supports("avx512ifma") && f.avx512;
#endif
    return f;
  }();
  return features;
}

std::string cpu_feature_string() {
  const CpuFeatures& f = cpu_features();
  std::string out;
  const auto add = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += '+';
    out += name;
  };
  add(f.aesni, "aesni");
  add(f.pclmul, "pclmul");
  add(f.sse2, "sse2");
  add(f.avx2, "avx2");
  add(f.sha, "sha");
  add(f.avx512, "avx512");
  add(f.ifma, "ifma");
  return out.empty() ? "none" : out;
}

void set_kernel_tier_cap(KernelTier cap) {
  detail::g_tier_cap.store(static_cast<int>(cap), std::memory_order_relaxed);
}

KernelTier aes_dispatch_tier() {
  return cap_tier(cpu_features().aesni ? KernelTier::kSimd : KernelTier::kPortable);
}

KernelTier ghash_dispatch_tier() {
  return cap_tier(cpu_features().pclmul ? KernelTier::kSimd : KernelTier::kPortable);
}

KernelTier chacha_dispatch_tier() {
  return cap_tier(cpu_features().sse2 ? KernelTier::kSimd : KernelTier::kPortable);
}

KernelTier poly1305_dispatch_tier() {
  const CpuFeatures& f = cpu_features();
  return cap_tier(f.avx2 || f.ifma ? KernelTier::kSimd : KernelTier::kPortable);
}

KernelTier sha1_dispatch_tier() {
  return cap_tier(cpu_features().sha ? KernelTier::kSimd : KernelTier::kPortable);
}

KernelTiers active_kernel_tiers() {
  KernelTiers t;
  t.aes = aes_dispatch_tier();
  t.ghash = ghash_dispatch_tier();
  t.chacha = chacha_dispatch_tier();
  t.poly1305 = poly1305_dispatch_tier();
  t.sha1 = sha1_dispatch_tier();
  return t;
}

}  // namespace gfwsim::crypto
