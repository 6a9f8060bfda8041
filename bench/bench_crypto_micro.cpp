// Microbenchmarks (google-benchmark) for the crypto substrate: the cost
// of the primitives behind every simulated connection and probe.
//
// The BM_* benches below run whatever kernel tier the host dispatches
// to (the production configuration). The custom main() additionally
// registers BM_*Tier/<tier> arms for each AEAD kernel and SHA-1 with the
// kernel-tier cap pinned, so one run compares the reference,
// portable-batched, and SIMD-batched tiers side by side; arms whose
// tier would silently degrade (e.g. "simd" on a host without AES-NI)
// are skipped rather than reported twice. BM_ChaCha20Pass/<kernel> and
// BM_Poly1305Kernel/<kernel> call each compiled ChaCha20 pass kernel and
// Poly1305 vector kernel directly, skipping those the host lacks, since
// a host's dispatch reaches only some of them.
#include <benchmark/benchmark.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/chacha20_poly1305.h"
#include "crypto/cpu.h"
#include "crypto/entropy.h"
#include "crypto/gcm.h"
#include "crypto/hkdf.h"
#include "crypto/kdf.h"
#include "crypto/md5.h"
#include "crypto/poly1305.h"
#include "crypto/rc4.h"
#include "crypto/rng.h"
#include "crypto/sha1.h"
#include "proxy/stream_crypto.h"
#include "proxy/wire.h"

#ifdef GFWSIM_HAVE_X86_SIMD
#include "crypto/simd_kernels.h"
#endif

namespace {

using namespace gfwsim;

void BM_Md5(benchmark::State& state) {
  crypto::Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Md5::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(64)->Arg(1500)->Arg(16384);

void BM_Sha1(benchmark::State& state) {
  crypto::Rng rng(2);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1500)->Arg(16384);

// Hashes whose input starts with the previous digest: each compression
// waits on the one before, as HKDF's short HMACs do, so this measures
// per-block latency rather than throughput. Registered per tier in main().
void BM_Sha1Chain(benchmark::State& state) {
  crypto::Rng rng(2);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto digest = crypto::Sha1::hash(data);
    std::memcpy(data.data(), digest.data(), digest.size());
  }
  benchmark::DoNotOptimize(data.data());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

// A one-shot Poly1305 MAC; registered per tier in main().
void BM_Poly1305(benchmark::State& state) {
  crypto::Rng rng(9);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Poly1305::mac(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void BM_AesGcmSeal(benchmark::State& state) {
  crypto::Rng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  crypto::AesGcm gcm(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1500)->Arg(16384);

void BM_AesCtr(benchmark::State& state) {
  crypto::Rng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes iv = rng.bytes(16);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  crypto::AesCtr ctr(key, iv);
  Bytes out(data.size());
  for (auto _ : state) {
    ctr.transform(data, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(1500)->Arg(16384);

// CFB128 over a running stream (the state carries across iterations, as
// a session's does). Decryption batches up to 8 blocks per AES call;
// encryption is serial, one block per call.
template <bool kEncrypt>
void BM_AesCfb(benchmark::State& state) {
  crypto::Rng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes iv = rng.bytes(16);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  crypto::AesCfb cfb(key, iv);
  Bytes out(data.size());
  for (auto _ : state) {
    if constexpr (kEncrypt) {
      cfb.encrypt(data, out.data());
    } else {
      cfb.decrypt(data, out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
void BM_AesCfbEncrypt(benchmark::State& state) { BM_AesCfb<true>(state); }
void BM_AesCfbDecrypt(benchmark::State& state) { BM_AesCfb<false>(state); }
BENCHMARK(BM_AesCfbEncrypt)->Arg(1500)->Arg(16384);
BENCHMARK(BM_AesCfbDecrypt)->Arg(1500)->Arg(16384);

void BM_Rc4(benchmark::State& state) {
  crypto::Rng rng(3);
  const Bytes key = rng.bytes(16);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  crypto::Rc4 rc4(key);
  Bytes out(data.size());
  for (auto _ : state) {
    rc4.transform(data, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Rc4)->Arg(1500);

void BM_Ghash(benchmark::State& state) {
  crypto::Rng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  crypto::AesGcm gcm(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.ghash({}, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Ghash)->Arg(1500)->Arg(16384);

void BM_AesGcmOpen(benchmark::State& state) {
  crypto::Rng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  crypto::AesGcm gcm(key);
  const Bytes sealed = gcm.seal(nonce, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open(nonce, sealed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(64)->Arg(1500)->Arg(16384);

void BM_ChaChaPolySeal(benchmark::State& state) {
  crypto::Rng rng(4);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  crypto::ChaCha20Poly1305 aead(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.seal(nonce, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
// Arg(2) is the sealed length field that precedes every chunk.
BENCHMARK(BM_ChaChaPolySeal)->Arg(2)->Arg(64)->Arg(1500)->Arg(16384);

void BM_EvpBytesToKey(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::evp_bytes_to_key("correct horse battery staple", 32));
  }
}
BENCHMARK(BM_EvpBytesToKey);

// A full HKDF-SHA1 derivation: ss_subkey memoizes per thread, so this
// cycles through kRounds salts per memo slot, ordered so that every slot
// is overwritten between two uses of the same salt and each call misses.
void BM_SsSubkey(benchmark::State& state) {
  constexpr std::size_t kRounds = 4;
  crypto::Rng rng(5);
  const Bytes master = rng.bytes(32);
  std::vector<std::vector<Bytes>> by_slot(crypto::kSsSubkeyMemoSlots);
  for (std::size_t filled = 0; filled < by_slot.size();) {
    Bytes salt = rng.bytes(32);
    auto& bucket = by_slot[crypto::ss_subkey_memo_slot(salt)];
    if (bucket.size() == kRounds) continue;
    bucket.push_back(std::move(salt));
    if (bucket.size() == kRounds) ++filled;
  }
  std::vector<Bytes> salts;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (const auto& bucket : by_slot) salts.push_back(bucket[round]);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ss_subkey(master, salts[next]));
    next = next + 1 == salts.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_SsSubkey);

// The same call answered from the memo (one salt, every call a hit).
void BM_SsSubkeyMemoHit(benchmark::State& state) {
  crypto::Rng rng(5);
  const Bytes master = rng.bytes(32);
  const Bytes salt = rng.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ss_subkey(master, salt));
  }
}
BENCHMARK(BM_SsSubkeyMemoHit);

void BM_FirstPacketBuild(benchmark::State& state) {
  crypto::Rng rng(6);
  const auto* spec = proxy::find_cipher("chacha20-ietf-poly1305");
  const Bytes key = proxy::master_key(*spec, "pw");
  const auto target = proxy::TargetSpec::hostname("www.wikipedia.org", 443);
  const Bytes data(300, 0x42);
  for (auto _ : state) {
    proxy::Encryptor enc(*spec, key, rng);
    benchmark::DoNotOptimize(proxy::build_first_packet(enc, target, data, false));
  }
}
BENCHMARK(BM_FirstPacketBuild);

// Building one session's cipher from its subkey: AES key expansion, H
// and its powers for GCM; a key copy for ChaCha20-Poly1305. Registered
// per AEAD method in main() as BM_AeadSessionSetup/<method>.
void BM_AeadSessionSetup(benchmark::State& state, const proxy::CipherSpec& spec) {
  crypto::Rng rng(8);
  const Bytes subkey = rng.bytes(spec.key_len);
  for (auto _ : state) {
    if (spec.algo == proxy::CipherAlgo::kAesGcm) {
      crypto::AesGcm gcm(subkey);
      benchmark::DoNotOptimize(&gcm);
    } else {
      crypto::ChaCha20Poly1305 aead(subkey);
      benchmark::DoNotOptimize(&aead);
    }
  }
}

// One direction of a stream-method session from the master key and IV:
// AES key expansion for CTR and CFB, MD5(key || IV) and the RC4 key
// schedule for rc4-md5, a key copy for ChaCha20. Registered per stream
// method in main() as BM_StreamSessionSetup/<method>.
void BM_StreamSessionSetup(benchmark::State& state, const proxy::CipherSpec& spec) {
  crypto::Rng rng(8);
  const Bytes key = rng.bytes(spec.key_len);
  const Bytes iv = rng.bytes(spec.iv_len);
  for (auto _ : state) {
    proxy::StreamSession session(spec, key, iv, proxy::StreamSession::Direction::kDecrypt);
    benchmark::DoNotOptimize(&session);
  }
}

void register_session_setup() {
  for (const proxy::CipherSpec* spec : proxy::all_ciphers()) {
    const bool aead = spec->kind == proxy::CipherKind::kAead;
    const std::string name =
        (aead ? "BM_AeadSessionSetup/" : "BM_StreamSessionSetup/") + std::string(spec->name);
    const auto body = aead ? BM_AeadSessionSetup : BM_StreamSessionSetup;
    benchmark::RegisterBenchmark(name.c_str(), [spec, body](benchmark::State& state) {
      body(state, *spec);
    });
  }
}

void BM_ShannonEntropy(benchmark::State& state) {
  crypto::Rng rng(7);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::shannon_entropy(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ShannonEntropy)->Arg(594)->Arg(16384);

// ---- Per-tier arms --------------------------------------------------------

// True when capping at `cap` actually lands on `cap` for the algorithm
// (i.e. the tier exists on this host and build).
bool tier_is_real(crypto::KernelTier cap, crypto::KernelTier (*dispatch)()) {
  crypto::ScopedKernelTierCap pin(cap);
  return dispatch() == cap;
}

template <typename Body>
void register_tier_arms(const char* name, crypto::KernelTier (*dispatch)(), Body body,
                        std::initializer_list<std::int64_t> sizes = {1500, 16384}) {
  for (const crypto::KernelTier tier :
       {crypto::KernelTier::kReference, crypto::KernelTier::kPortable,
        crypto::KernelTier::kSimd}) {
    if (!tier_is_real(tier, dispatch)) continue;
    const std::string bench_name =
        std::string(name) + "Tier/" + crypto::tier_name(tier);
    auto* bench = benchmark::RegisterBenchmark(bench_name.c_str(),
                                               [tier, body](benchmark::State& state) {
                                                 crypto::ScopedKernelTierCap pin(tier);
                                                 body(state);
                                               });
    for (const std::int64_t size : sizes) bench->Arg(size);
  }
}

#ifdef GFWSIM_HAVE_X86_SIMD
// One pass of each compiled ChaCha20 kernel the host can run.
void register_chacha_pass_kernels() {
  for (const crypto::simd::ChaChaPassKernel& kernel : crypto::simd::kChaChaPassKernels) {
    if (!(crypto::cpu_features().*kernel.have)) continue;
    const std::string name = std::string("BM_ChaCha20Pass/") + kernel.name;
    benchmark::RegisterBenchmark(name.c_str(), [kernel](benchmark::State& state) {
      std::uint32_t st[16], w12[16], w13[16];
      for (std::uint32_t i = 0; i < 16; ++i) {
        st[i] = 0x9e3779b9u * (i + 1);
        w12[i] = i;
        w13[i] = 0;
      }
      alignas(64) std::uint8_t out[1024];
      for (auto _ : state) {
        kernel.pass(st, w12, w13, out);
        benchmark::DoNotOptimize(out);
        benchmark::ClobberMemory();
      }
      state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * 64 * kernel.lanes));
    });
  }
}

// The two Poly1305 vector kernels on whole runs, with stand-in powers of
// r (the kernels' cost does not depend on the values): 1536 bytes is a
// 1500-byte message rounded up to both kernels' block groups.
void register_poly1305_kernels() {
  using crypto::simd::poly1305_blocks_avx2;
  using crypto::simd::poly1305_blocks_ifma;
  const auto add = [](const char* name, auto body) {
    benchmark::RegisterBenchmark(name, [body](benchmark::State& state) {
      crypto::Rng rng(9);
      const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
      for (auto _ : state) body(data);
      state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
    })->Arg(1536)->Arg(16384);
  };
  if (crypto::cpu_features().avx2) {
    add("BM_Poly1305Kernel/avx2", [](const Bytes& data) {
      std::uint32_t h[5] = {}, r[4][5];
      for (int k = 0; k < 4; ++k) {
        for (int i = 0; i < 5; ++i) r[k][i] = 0x0123456u + 7u * (5u * k + i);
      }
      poly1305_blocks_avx2(h, r, data.data(), data.size() / 16);
      benchmark::DoNotOptimize(h);
    });
  }
  if (crypto::cpu_features().ifma) {
    add("BM_Poly1305Kernel/ifma", [](const Bytes& data) {
      std::uint64_t h[3] = {}, r[8][3];
      for (int k = 0; k < 8; ++k) {
        for (int i = 0; i < 3; ++i) r[k][i] = 0x0123456789au + 7u * (3u * k + i);
      }
      poly1305_blocks_ifma(h, r, data.data(), data.size() / 16);
      benchmark::DoNotOptimize(h);
    });
  }
}
#endif

void register_all_tier_arms() {
  register_tier_arms("BM_AesGcmSeal", crypto::aes_dispatch_tier, BM_AesGcmSeal);
  register_tier_arms("BM_AesGcmOpen", crypto::aes_dispatch_tier, BM_AesGcmOpen);
  register_tier_arms("BM_AesCtr", crypto::aes_dispatch_tier, BM_AesCtr);
  register_tier_arms("BM_Ghash", crypto::ghash_dispatch_tier, BM_Ghash);
  register_tier_arms("BM_ChaChaPolySeal", crypto::chacha_dispatch_tier,
                     BM_ChaChaPolySeal);
  register_tier_arms("BM_Poly1305", crypto::poly1305_dispatch_tier, BM_Poly1305,
                     {64, 1500, 16384});
  register_tier_arms("BM_Sha1", crypto::sha1_dispatch_tier, BM_Sha1Chain, {64});
}

}  // namespace

int main(int argc, char** argv) {
  register_session_setup();
  register_all_tier_arms();
#ifdef GFWSIM_HAVE_X86_SIMD
  register_chacha_pass_kernels();
  register_poly1305_kernels();
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("build_type", GFW_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("cpu_features", crypto::cpu_feature_string());
  {
    const crypto::KernelTiers tiers = crypto::active_kernel_tiers();
    benchmark::AddCustomContext(
        "kernel_tiers",
        std::string("aes=") + crypto::tier_name(tiers.aes) +
            " ghash=" + crypto::tier_name(tiers.ghash) +
            " chacha=" + crypto::tier_name(tiers.chacha) +
            " poly1305=" + crypto::tier_name(tiers.poly1305) +
            " sha1=" + crypto::tier_name(tiers.sha1));
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
