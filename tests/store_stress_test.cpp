// Concurrent pressure on the cache store: mixed put/get/erase from many
// threads.  The tiered rows run the background reclaim thread over tiers
// sized so demotion and cold eviction both fire continuously; the
// RAM-only row (the default server cache) drives inline eviction with
// cross-shard steals instead.  Run under TSan and ASan by
// scripts/sanitize.sh — the point is the lock hierarchy (DESIGN.md §14)
// and exact byte accounting, not any particular hit ratio.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "store/tiered_store.hpp"

namespace ftc::store {
namespace {

constexpr std::uint64_t kStressRamBytes = 64 << 10;  // tiny tiers:
                                                     // constant pressure

StoreConfig stress_config(PolicyKind policy, bool cold_tier = true) {
  StoreConfig config;
  config.nvme_bytes = cold_tier ? 256 << 10 : 0;
  config.policy = policy;
  config.low_watermark = 0.6;
  config.high_watermark = 0.8;
  config.shards = 4;
  config.background_reclaim = true;
  return config;
}

void hammer(TieredCacheStore& store, std::uint64_t seed,
            std::atomic<std::uint64_t>& served) {
  Rng rng(seed);
  for (int op = 0; op < 2000; ++op) {
    const std::string path = "/s/" + std::to_string(rng.below(200));
    const std::uint64_t roll = rng.below(10);
    if (roll < 5) {
      const std::size_t bytes = 256 + rng.below(1024);
      ASSERT_TRUE(store
                      .put(path, common::Buffer(std::string(bytes, 'd')),
                           bytes, op)
                      .is_ok());
    } else if (roll < 9) {
      auto got = store.get(path);
      if (got.is_ok()) {
        served.fetch_add(1, std::memory_order_relaxed);
        ASSERT_FALSE(got.value().view().empty());
      }
    } else {
      store.erase(path);
    }
  }
}

void run_stress(PolicyKind policy, bool cold_tier = true) {
  TieredCacheStore store(kStressRamBytes, stress_config(policy, cold_tier));
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 8; ++t) {
    threads.emplace_back(
        [&store, &served, t] { hammer(store, 0xFEED + t, served); });
  }
  for (auto& thread : threads) thread.join();
  store.wait_reclaimed();

  // Invariants, not performance: both tiers within budget, accounting
  // consistent, pressure actually exercised, lookups actually served.
  const StoreStats stats = store.stats_snapshot();
  EXPECT_LE(stats.ram_used_bytes, kStressRamBytes);
  EXPECT_LE(stats.nvme_used_bytes, store.config().nvme_bytes);
  if (cold_tier) {
    EXPECT_EQ(stats.nvme_used_bytes, store.device()->used_bytes());
    EXPECT_GT(stats.demotions, 0u);
    EXPECT_GT(stats.reclaim_runs, 0u);
  } else {
    EXPECT_GT(stats.evictions, 0u);
    std::uint64_t sum = 0;
    for (int i = 0; i < 200; ++i) {
      sum += store.size_of("/s/" + std::to_string(i)).value_or(0);
    }
    EXPECT_EQ(stats.ram_used_bytes, sum);
  }
  EXPECT_GT(served.load(), 0u);
  // Every surviving entry is still readable and non-empty.  (These gets
  // promote cold entries, which can themselves re-trigger reclaim, so
  // count readability only — file_count may legitimately shrink behind
  // the sweep.)
  std::size_t readable = 0;
  for (int i = 0; i < 200; ++i) {
    auto got = store.get("/s/" + std::to_string(i));
    if (got.is_ok()) {
      ++readable;
      EXPECT_FALSE(got.value().view().empty());
    }
  }
  EXPECT_GT(readable, 0u);
}

TEST(TieredStoreStress, MixedOpsUnderReclaimLru) {
  run_stress(PolicyKind::kLru);
}

TEST(TieredStoreStress, MixedOpsUnderReclaimS3Fifo) {
  run_stress(PolicyKind::kS3Fifo);
}

TEST(TieredStoreStress, MixedOpsUnderReclaimGdsf) {
  run_stress(PolicyKind::kGdsf);
}

TEST(TieredStoreStress, MixedOpsRamOnlyInlineEviction) {
  run_stress(PolicyKind::kLru, /*cold_tier=*/false);
}

// --- RAM-only store: the server's default cache ------------------------

std::string path_of(int i) { return "/s/file_" + std::to_string(i); }

StoreConfig ram_only(std::size_t shards) {
  StoreConfig config;
  config.shards = shards;
  return config;
}

// The core invariant the lock-striped design must preserve under races:
// the global byte counter equals the sum of the entries actually stored,
// and the budget holds, after any interleaving of puts/erases.
TEST(RamOnlyStore, ConcurrentMixedOpsKeepAccountingExact) {
  constexpr int kThreads = 4;
  constexpr int kUniverse = 64;
  constexpr std::uint64_t kCapacity = 20 * 64;  // forces steady eviction
  TieredCacheStore cache(kCapacity, ram_only(8));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 400; ++i) {
        const int id = (t * 131 + i * 7) % kUniverse;
        switch (i % 4) {
          case 0:
          case 1:
            (void)cache.put(path_of(id), std::string(64, 'z'), 64, 0);
            break;
          case 2:
            (void)cache.get(path_of(id));
            break;
          case 3:
            (void)cache.erase(path_of(id));
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::uint64_t sum = 0;
  std::size_t present = 0;
  for (int i = 0; i < kUniverse; ++i) {
    if (const auto size = cache.size_of(path_of(i))) {
      sum += *size;
      ++present;
    }
  }
  EXPECT_EQ(cache.used_bytes(), sum);
  EXPECT_EQ(cache.file_count(), present);
  EXPECT_LE(cache.used_bytes(), kCapacity);
}

// Regression for the peer-eviction sweep.  Advancing the shared hand
// once per PROBE let concurrent stealers interleaving on the counter
// each land exclusively on empty shards (with an even shard count, two
// threads alternate onto one parity class) and report spurious
// kCapacity while evictable bytes sat in other shards.  With 32 shards
// holding 10 small files, every one of these 200 concurrent over-budget
// puts must succeed: each sweep visits all peers from a snapshot of the
// hand with a local cursor.
TEST(RamOnlyStore, ConcurrentPeerStealNeverSpuriouslyFails) {
  constexpr std::uint64_t kCapacity = 300;
  TieredCacheStore cache(kCapacity, ram_only(32));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache.put(path_of(i), std::string(30, 's'), 30, 0).is_ok());
  }

  constexpr int kThreads = 4;
  constexpr int kPutsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      for (int i = 0; i < kPutsPerThread; ++i) {
        const std::string path =
            "/steal/" + std::to_string(t) + "/" + std::to_string(i);
        if (!cache.put(path, std::string(30, 'p'), 30, 0).is_ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.used_bytes(), kCapacity);
  // Accounting stayed exact through the cross-shard eviction storm.
  std::uint64_t sum = 0;
  for (int i = 0; i < 10; ++i) {
    if (const auto size = cache.size_of(path_of(i))) sum += *size;
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPutsPerThread; ++i) {
      const std::string path =
          "/steal/" + std::to_string(t) + "/" + std::to_string(i);
      if (const auto size = cache.size_of(path)) sum += *size;
    }
  }
  EXPECT_EQ(cache.used_bytes(), sum);
}

}  // namespace
}  // namespace ftc::store
