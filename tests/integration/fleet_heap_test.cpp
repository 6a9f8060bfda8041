// Heap budget of one fleet World: the benchmark suite's 8-server grid
// (bench/suite `fleet_mixed`, 5 ciphers, 6 implementations, 2 regions)
// run as one 24-hour shard must keep its peak live heap under a fixed
// budget. The budget holds only while a World allocates the state its
// scenario runs: no replay filter on a server version that never reads
// one, no second Bloom generation before the first rotation and no ARQ
// block on an ideal network's connections. Any of the three back costs
// hundreds of kilobytes at the peak.
//
// This binary replaces the global operator new and delete to count live
// bytes, so it holds this test alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "gfw/runner.h"
#include "gfw/world.h"

namespace {

// Bytes requested through operator new and not yet deleted, and their
// peak since the last reset. Each block carries its size in a 16-byte
// header, which keeps the default new alignment.
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
constexpr std::size_t kHeader = 16;

}  // namespace

// Out of line, so GCC does not pair the inlined malloc/free with the
// new/delete expressions of their callers (-Wmismatched-new-delete).
// Every replaceable non-aligned form is routed here, so no block with a
// header reaches a sanitizer runtime's own delete, or the reverse.
__attribute__((noinline)) void* operator new(std::size_t size) {
  auto* block = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &size, sizeof size);
  const std::size_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  if (live > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(live, std::memory_order_relaxed);
  }
  return block + kHeader;
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  auto* block = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, block, sizeof size);
  g_live.fetch_sub(size, std::memory_order_relaxed);
  std::free(block);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { operator delete(p); }

namespace gfwsim {
namespace {

// Peak live heap of one such World, construction to destruction: the
// measured 2,974,230 B plus 5 %.
constexpr std::size_t kBudgetBytes = 3'123'000;

gfw::ServerSpec server(probesim::ServerSetup::Impl impl, const char* cipher,
                       const char* region) {
  gfw::ServerSpec spec;
  spec.server.impl = impl;
  spec.server.cipher = cipher;
  spec.region = region;
  return spec;
}

// The suite's `fleet_mixed` scenario at full scale, as one shard.
gfw::Scenario suite_fleet() {
  using Impl = probesim::ServerSetup::Impl;
  gfw::Scenario scenario;
  scenario.gfw.blocking.block_probability = 0.0;
  scenario.gfw.blocking.sensitive_block_probability = 0.0;
  scenario.traffic = client::TrafficSpec::browsing();
  scenario.connection_interval = net::seconds(90);
  scenario.classifier_base_rate = 0.35;
  scenario.duration = net::hours(24);
  scenario.base_seed = 0xF1EE7;
  scenario.fleet = {
      server(Impl::kOutline107, "chacha20-ietf-poly1305", "beijing"),
      server(Impl::kOutline107, "chacha20-ietf-poly1305", "unicom"),
      server(Impl::kOutline110, "chacha20-ietf-poly1305", "beijing"),
      server(Impl::kLibevNew, "aes-256-gcm", "beijing"),
      server(Impl::kLibevNew, "chacha20-ietf-poly1305", "unicom"),
      server(Impl::kLibevOld, "aes-256-ctr", "unicom"),
      server(Impl::kSsPython, "aes-256-cfb", "beijing"),
      server(Impl::kSsr, "rc4-md5", "unicom"),
  };
  return scenario;
}

TEST(FleetHeap, OneFleetWorldStaysUnderItsBudget) {
  const gfw::Scenario scenario = suite_fleet();
  const std::size_t before = g_live.load();
  g_peak.store(before);
  std::size_t probes = 0;
  {
    gfw::World world(scenario, gfw::shard_seed(scenario.base_seed, 0));
    world.run();
    probes = world.log().size();
  }
  const std::size_t peak = g_peak.load() - before;
  EXPECT_GT(probes, 0u);
  EXPECT_LT(peak, kBudgetBytes) << "peak live heap " << peak << " B";
  RecordProperty("peak_live_bytes", std::to_string(peak));
}

}  // namespace
}  // namespace gfwsim
