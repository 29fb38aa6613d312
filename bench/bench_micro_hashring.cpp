// Google-benchmark microbenchmarks for the core data structures: ring
// lookups/updates vs the baseline placements, and the raw hash functions.
// These quantify the per-request costs behind Fig 5(a)'s FT overhead and
// the vnode trade-off in Sec V-B2.  Every ring row runs twice: BM_Ring*
// times the runtime ring (a sorted vector of virtual positions) and
// BM_MapRing* the paper's std::map layout (MapHashRing, same placement).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hash/crc32.hpp"
#include "hash/fnv.hpp"
#include "hash/murmur3.hpp"
#include "hash/xxhash64.hpp"
#include "membership/ring_view.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "ring/map_hash_ring.hpp"
#include "ring/movement_analysis.hpp"
#include "ring/placement.hpp"

namespace {

using namespace ftc;

const std::vector<std::string>& bench_keys() {
  static const auto keys = ring::make_key_population(4096);
  return keys;
}

ring::RingConfig config_with(std::int64_t vnodes) {
  ring::RingConfig config;
  config.vnodes_per_node = static_cast<std::uint32_t>(vnodes);
  return config;
}

template <class Ring>
void BM_RingLookup(benchmark::State& state) {
  const Ring ring(static_cast<std::uint32_t>(state.range(0)),
                  config_with(state.range(1)));
  const auto& keys = bench_keys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.owner(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_RingLookup, ring::ConsistentHashRing)
    ->Name("BM_RingLookup")
    ->Args({64, 100})
    ->Args({1024, 100})
    ->Args({1024, 1000});
BENCHMARK_TEMPLATE(BM_RingLookup, ring::MapHashRing)
    ->Name("BM_MapRingLookup")
    ->Args({64, 100})
    ->Args({1024, 100})
    ->Args({1024, 1000});

template <class Ring>
void BM_RingLookupPrehashed(benchmark::State& state) {
  const Ring ring(static_cast<std::uint32_t>(state.range(0)),
                  config_with(100));
  std::uint64_t h = 0x1234;
  for (auto _ : state) {
    h = hash::fmix64(h);
    benchmark::DoNotOptimize(ring.owner_of_hash(h));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_RingLookupPrehashed, ring::ConsistentHashRing)
    ->Name("BM_RingLookupPrehashed")
    ->Arg(64)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_RingLookupPrehashed, ring::MapHashRing)
    ->Name("BM_MapRingLookupPrehashed")
    ->Arg(64)
    ->Arg(1024);

void BM_ModuloLookup(benchmark::State& state) {
  const auto strategy = ring::make_strategy(
      ring::StrategyKind::kStaticModulo,
      static_cast<std::uint32_t>(state.range(0)), 0);
  const auto& keys = bench_keys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->owner(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModuloLookup)->Arg(64)->Arg(1024);

// Bounded-load lookup vs the plain lookup it wraps.  The overloaded
// predicate rejects ~1/5 of nodes so the walk actually spills sometimes;
// the budget claim (checked by the manual comparison in main) is that the
// bounded variant stays within 2x the plain prehashed lookup.
void BM_RingLookupBounded(benchmark::State& state) {
  const ring::ConsistentHashRing ring(
      static_cast<std::uint32_t>(state.range(0)), config_with(100));
  const auto excluded = [](ring::NodeId) { return false; };
  const auto overloaded = [](ring::NodeId n) { return n % 5 == 0; };
  std::uint64_t h = 0x1234;
  for (auto _ : state) {
    h = hash::fmix64(h);
    benchmark::DoNotOptimize(
        ring.owner_of_hash_bounded(h, 3, excluded, overloaded));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingLookupBounded)->Arg(64)->Arg(1024);

template <class Ring>
void BM_RingNodeRemoval(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const Ring ring(nodes, config_with(state.range(1)));
  std::uint32_t victim = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Ring copy = ring;
    state.ResumeTiming();
    copy.remove_node(victim++ % nodes);
  }
}
BENCHMARK_TEMPLATE(BM_RingNodeRemoval, ring::ConsistentHashRing)
    ->Name("BM_RingNodeRemoval")
    ->Args({1024, 100})
    ->Args({1024, 1000});
BENCHMARK_TEMPLATE(BM_RingNodeRemoval, ring::MapHashRing)
    ->Name("BM_MapRingNodeRemoval")
    ->Args({1024, 100})
    ->Args({1024, 1000});

template <class Ring>
void BM_RingConstruction(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const ring::RingConfig config = config_with(state.range(1));
  for (auto _ : state) {
    Ring ring(nodes, config);
    benchmark::DoNotOptimize(ring.positions().size());
  }
}
BENCHMARK_TEMPLATE(BM_RingConstruction, ring::ConsistentHashRing)
    ->Name("BM_RingConstruction")
    ->Args({64, 100})
    ->Args({1024, 100});
BENCHMARK_TEMPLATE(BM_RingConstruction, ring::MapHashRing)
    ->Name("BM_MapRingConstruction")
    ->Args({64, 100})
    ->Args({1024, 100});

/// One membership epoch publish: copy the current snapshot, remove (or
/// re-add) one node, wrap the copy in a new RingView.
void BM_VersionedRingApply(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  std::vector<ring::NodeId> members(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) members[n] = n;
  membership::VersionedRing versioned(config_with(100), members, 64);
  bool present = true;
  for (auto _ : state) {
    versioned.apply(present ? membership::RingEventType::kConfirmFailed
                            : membership::RingEventType::kJoin,
                    nodes / 2, 0);
    present = !present;
  }
}
BENCHMARK(BM_VersionedRingApply)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_HashFnv(benchmark::State& state) {
  const auto& keys = bench_keys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::fnv1a64(keys[i++ & 4095]));
  }
}
BENCHMARK(BM_HashFnv);

void BM_HashMurmur3(benchmark::State& state) {
  const auto& keys = bench_keys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::murmur3_64(keys[i++ & 4095]));
  }
}
BENCHMARK(BM_HashMurmur3);

void BM_HashXx(benchmark::State& state) {
  const auto& keys = bench_keys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::xxhash64(keys[i++ & 4095]));
  }
}
BENCHMARK(BM_HashXx);

/// False (and the run skipped) when the CPU lacks the kernel's
/// instructions.
using KernelSupported = bool (*)();

bool kernel_runs(benchmark::State& state, KernelSupported supported) {
  if (supported()) return true;
  state.SkipWithError("CPU lacks this CRC-32 kernel's instructions");
  return false;
}

/// CRC-32 over a payload-sized buffer (the per-read integrity check):
/// bytes/s is the kernel's throughput.
void BM_Crc32(benchmark::State& state, hash::detail::Kernel kernel,
              KernelSupported supported) {
  if (!kernel_runs(state, supported)) return;
  std::string payload(static_cast<std::size_t>(state.range(0)), '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(payload, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

/// A 64 MiB buffer (train_failover's dataset size) filled with a fixed
/// pattern, walked in slices by the two benchmarks below.
const std::string& cold_buffer() {
  static const std::string buffer = [] {
    std::string b(64 << 20, '\0');
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<char>(i * 131 + 7);
    }
    return b;
  }();
  return buffer;
}

/// CRC-32 over a fresh slice each iteration: walks the 64 MiB buffer in
/// 1 MiB slices, the way a client verifies each newly received 1 MiB
/// payload.  On a box whose last-level cache holds 64 MiB (the 300 MiB
/// L3 in DESIGN.md §6) the slices come from L3, not DRAM; either way they
/// are not in the core's L1/L2.  BM_Crc32 above re-hashes one
/// cache-resident buffer, so it shows the hot ceiling.
void BM_Crc32Cold(benchmark::State& state, hash::detail::Kernel kernel,
                  KernelSupported supported) {
  if (!kernel_runs(state, supported)) return;
  constexpr std::size_t kSlice = 1 << 20;
  const std::string_view view(cold_buffer());
  std::size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(view.substr(offset, kSlice), 0));
    offset = (offset + kSlice) % view.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSlice));
}

/// BM_Crc32Cold with the thread asleep for ~200 us (timing paused) before
/// each slice of range(0) bytes: the state a trainer's client is in when
/// it verifies a payload right after waiting on its RPC.  A core that has
/// just woken runs the fold well below its busy-loop speed (DESIGN.md §6).
void BM_Crc32AfterIdle(benchmark::State& state, hash::detail::Kernel kernel,
                       KernelSupported supported) {
  if (!kernel_runs(state, supported)) return;
  const auto slice = static_cast<std::size_t>(state.range(0));
  const std::string_view view(cold_buffer());
  std::size_t offset = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    state.ResumeTiming();
    benchmark::DoNotOptimize(kernel(view.substr(offset, slice), 0));
    offset = (offset + slice) % view.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// One run measures every folding kernel on the same box, so the wide
// (512-bit) vs 128-bit ratio comes from a single binary and CPU.
#if defined(__x86_64__)
BENCHMARK_CAPTURE(BM_Crc32, clmul, hash::detail::crc32_clmul,
                  hash::detail::clmul_supported)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Crc32, vpclmul, hash::detail::crc32_vpclmul,
                  hash::detail::vpclmul_supported)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Crc32Cold, clmul, hash::detail::crc32_clmul,
                  hash::detail::clmul_supported);
BENCHMARK_CAPTURE(BM_Crc32Cold, vpclmul, hash::detail::crc32_vpclmul,
                  hash::detail::vpclmul_supported);
// A fixed count: the sleeps are not timed, so a time-based count would
// sleep for many seconds per 64 KiB run.
BENCHMARK_CAPTURE(BM_Crc32AfterIdle, clmul, hash::detail::crc32_clmul,
                  hash::detail::clmul_supported)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Iterations(2000);
BENCHMARK_CAPTURE(BM_Crc32AfterIdle, vpclmul, hash::detail::crc32_vpclmul,
                  hash::detail::vpclmul_supported)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Iterations(2000);
#else
BENCHMARK_CAPTURE(BM_Crc32, portable, hash::detail::crc32_portable,
                  [] { return true; })
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(1 << 20);
#endif

/// Manual budget check: 200k prehashed lookups, plain vs bounded (same
/// ring, same hash stream), best of 3 rounds each.  The bounded walk may
/// inspect a few extra ring positions and calls two predicates, but it
/// shares the one binary search — so it must stay within 2x.  Exits
/// non-zero on regression; wired into scripts/ci.sh.
int bounded_lookup_budget_check() {
  ring::RingConfig config;
  config.vnodes_per_node = 100;
  const ring::ConsistentHashRing ring(1024, config);
  const auto excluded = [](ring::NodeId) { return false; };
  const auto overloaded = [](ring::NodeId n) { return n % 5 == 0; };
  constexpr int kLookups = 200000;
  constexpr int kRounds = 3;

  const auto best_of = [&](auto&& body) {
    double best = 1e18;
    for (int round = 0; round < kRounds; ++round) {
      std::uint64_t h = 0x1234;
      std::uint64_t sink = 0;
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kLookups; ++i) {
        h = hash::fmix64(h);
        sink ^= body(h);
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      benchmark::DoNotOptimize(sink);
      best = std::min(best, seconds);
    }
    return best;
  };

  const double plain = best_of(
      [&](std::uint64_t h) { return ring.owner_of_hash(h); });
  const double bounded = best_of([&](std::uint64_t h) {
    return ring.owner_of_hash_bounded(h, 3, excluded, overloaded).chosen;
  });
  const double ratio = plain > 0.0 ? bounded / plain : 0.0;
  std::printf(
      "bounded-load budget: plain %.1f ns/lookup, bounded %.1f ns/lookup "
      "-> %.2fx (budget 2.00x, %s)\n",
      plain / kLookups * 1e9, bounded / kLookups * 1e9, ratio,
      ratio <= 2.0 ? "ok" : "EXCEEDED");
  return ratio <= 2.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bounded_lookup_budget_check();
}
