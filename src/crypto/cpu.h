// Runtime CPU-feature detection and kernel-tier dispatch for the crypto
// substrate.
//
// Every hot AEAD primitive, and SHA-1, ships in up to three bit-identical
// tiers:
//
//   kReference  slow, obviously-correct kernels, always compiled in:
//               FIPS 197 AES rounds, bit-by-bit GF(2^128) multiply,
//               single-block ChaCha core, 26-bit per-block Poly1305.
//   kPortable   batched plain C++: interleaved T-table AES, 4-block
//               GHASH on widened Shoup tables (the only tier that
//               builds GHASH tables), 4-lane interleaved ChaCha20,
//               radix-2^44 Poly1305 two blocks per step. SHA-1 has one
//               scalar kernel, which serves this tier and the reference.
//   kSimd       x86-64 kernels picked at runtime: 8-block AES-NI, PCLMUL
//               4-block GHASH; ChaCha20 in 4-, 8- or 16-lane AVX-512
//               passes sized to what the op still wants (vprold), else
//               8-lane AVX2 or 4-lane SSE2 passes; Poly1305 8-way
//               AVX-512 IFMA in radix 2^44, else 4-way AVX2 in radix
//               2^26 (runs of 16 blocks or more; shorter runs stay on
//               radix 2^44); SHA-NI SHA-1.
//               Compiled only when the toolchain probe passes
//               (GFWSIM_HAVE_X86_SIMD) and not at all under
//               -DGFW_FORCE_REF_CRYPTO=ON.
//
// Each algorithm dispatches to min(best tier its features allow,
// kernel_tier_cap()). AES, ChaCha20 and SHA-1 read the cap on every call;
// GHASH and Poly1305 read it once, when the AesGcm or Poly1305 object is
// built, and keep that tier for the object's life (an AesGcm builds only
// its own tier's key material). The cap defaults to kSimd; tests and the
// per-tier bench arms lower it to pin a tier, and the forced-reference
// CI build drops the SIMD tiers so the portable ones cannot bit-rot.
#pragma once

#include <atomic>
#include <string>

namespace gfwsim::crypto {

enum class KernelTier : int { kReference = 0, kPortable = 1, kSimd = 2 };

const char* tier_name(KernelTier tier);

struct CpuFeatures {
  bool aesni = false;   // AES + SSE2 (the 8-block AESENC kernel)
  bool pclmul = false;  // PCLMULQDQ + SSSE3 (aggregated GHASH folds)
  bool sse2 = false;    // baseline for the 4-lane ChaCha kernel
  bool avx2 = false;    // the 8-lane ymm ChaCha and 4-way Poly1305 kernels
  bool sha = false;     // SHA extensions + SSE4.1 (the SHA-NI SHA-1 kernel)
  bool avx512 = false;  // AVX-512F + VL (the 4/8/16-lane vprold ChaCha kernels)
  bool ifma = false;    // AVX-512 IFMA + avx512 (the 8-way radix-2^44 Poly1305)
};

// Detected once at startup; all-false when the SIMD kernels were not
// compiled (non-x86 hosts or a forced-reference build).
const CpuFeatures& cpu_features();

// "aesni+pclmul+sse2+avx2+sha+avx512+ifma", or "none". For bench summaries / JSON.
std::string cpu_feature_string();

namespace detail {
extern std::atomic<int> g_tier_cap;
}

// Global ceiling on dispatch, for tests and per-tier bench arms. Takes
// effect on the next AES, ChaCha20 or SHA-1 call and on the next AesGcm or
// Poly1305 built; not intended to change while crypto is running on
// other threads.
inline KernelTier kernel_tier_cap() {
  return static_cast<KernelTier>(detail::g_tier_cap.load(std::memory_order_relaxed));
}
void set_kernel_tier_cap(KernelTier cap);

// RAII pin for tests/benches: caps the tier, restores on destruction.
class ScopedKernelTierCap {
 public:
  explicit ScopedKernelTierCap(KernelTier cap) : previous_(kernel_tier_cap()) {
    set_kernel_tier_cap(cap);
  }
  ~ScopedKernelTierCap() { set_kernel_tier_cap(previous_); }
  ScopedKernelTierCap(const ScopedKernelTierCap&) = delete;
  ScopedKernelTierCap& operator=(const ScopedKernelTierCap&) = delete;

 private:
  KernelTier previous_;
};

// The tier each algorithm would dispatch to right now (features x cap).
struct KernelTiers {
  KernelTier aes = KernelTier::kReference;
  KernelTier ghash = KernelTier::kReference;
  KernelTier chacha = KernelTier::kReference;
  KernelTier poly1305 = KernelTier::kReference;
  KernelTier sha1 = KernelTier::kReference;
};
KernelTiers active_kernel_tiers();

// Per-algorithm dispatch helpers used by the kernels themselves.
inline KernelTier cap_tier(KernelTier best) {
  const KernelTier cap = kernel_tier_cap();
  return best < cap ? best : cap;
}
KernelTier aes_dispatch_tier();
KernelTier ghash_dispatch_tier();
KernelTier chacha_dispatch_tier();
KernelTier poly1305_dispatch_tier();
KernelTier sha1_dispatch_tier();

}  // namespace gfwsim::crypto
