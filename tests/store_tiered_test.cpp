// TieredCacheStore semantics: hot/cold placement, demotion instead of
// deletion, promotion on cold hits, watermark reclaim, overflow writes at
// the RAM hard cap, modelled NVMe latency, promotions racing newer puts,
// and warm restart from the device manifest with generation validation.
// The RAM-only shape (no cold tier, the default server cache) gets its
// own section: global budget across shards, inline LRU eviction, exact
// byte accounting.
//
// background_reclaim is OFF throughout (reclaim runs inline at the end of
// each put), so every tier move below is deterministic; the threaded
// reclaim path is exercised by store_stress_test.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/tiered_store.hpp"

namespace ftc::store {
namespace {

constexpr std::uint64_t kRamBytes = 1000;

StoreConfig test_config() {
  StoreConfig config;
  config.nvme_bytes = 4000;
  config.policy = PolicyKind::kLru;  // deterministic victim order
  config.low_watermark = 0.5;
  config.high_watermark = 0.8;
  config.shards = 1;  // one shard = fully deterministic demotion order
  config.background_reclaim = false;
  return config;
}

std::string path_of(int i) { return "/t/file_" + std::to_string(i); }

common::Buffer bytes_of(std::size_t n, char fill = 'x') {
  return common::Buffer(std::string(n, fill));
}

TEST(TieredStore, ConstructorValidatesConfig) {
  StoreConfig bad = test_config();
  bad.high_watermark = 0.2;
  EXPECT_THROW((TieredCacheStore{kRamBytes, bad}), std::invalid_argument);
  EXPECT_THROW((TieredCacheStore{0, test_config()}), std::invalid_argument);
}

TEST(TieredStore, HotHitIsZeroCopy) {
  TieredCacheStore store(kRamBytes, test_config());
  common::Buffer contents = bytes_of(100);
  ASSERT_TRUE(store.put("/a", contents, 100, 0).is_ok());
  EXPECT_EQ(store.tier_of("/a"), "ram");
  auto got = store.get("/a");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().shares_storage(contents));
  const StoreStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.hot_hits, 1u);
  EXPECT_EQ(stats.cold_hits, 0u);
  EXPECT_EQ(stats.ram_used_bytes, 100u);
}

TEST(TieredStore, PressureDemotesInsteadOfDeleting) {
  // RAM budget 1000, high watermark 800: the 9th 100-byte file pushes
  // used past 800, and inline reclaim drains to the low watermark (500)
  // by demoting LRU victims to NVMe.  Nothing is lost.
  TieredCacheStore store(kRamBytes, test_config());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  const StoreStats stats = store.stats_snapshot();
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.ram_used_bytes, 500u);
  EXPECT_EQ(stats.ram_used_bytes + stats.nvme_used_bytes, 900u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(store.contains(path_of(i))) << path_of(i);
  }
  // The oldest files went cold; the newest stayed hot.
  EXPECT_EQ(store.tier_of(path_of(0)), "nvme");
  EXPECT_EQ(store.tier_of(path_of(8)), "ram");
}

TEST(TieredStore, ColdHitPromotesBackToRam) {
  TieredCacheStore store(kRamBytes, test_config());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  ASSERT_EQ(store.tier_of(path_of(0)), "nvme");
  auto got = store.get(path_of(0));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 100u);
  EXPECT_EQ(store.tier_of(path_of(0)), "ram");
  const StoreStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.cold_hits, 1u);
  EXPECT_EQ(stats.promotions, 1u);
}

TEST(TieredStore, RamHardCapOverflowsToColdWithoutBlocking) {
  // 8 x 100 bytes = 800 (at the high watermark but reclaim only fires
  // when used EXCEEDS it)... so instead: fill to 700, then put 400 —
  // 700+400 > 1000 overshoots the hard cap and must route cold.
  StoreConfig config = test_config();
  config.high_watermark = 0.95;  // keep inline reclaim out of the way
  config.low_watermark = 0.5;
  TieredCacheStore store(kRamBytes, config);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  ASSERT_TRUE(store.put("/burst", bytes_of(400), 400, 0).is_ok());
  EXPECT_EQ(store.tier_of("/burst"), "nvme");
  const StoreStats stats = store.stats_snapshot();
  EXPECT_EQ(stats.overflow_writes, 1u);
  EXPECT_EQ(stats.ram_used_bytes, 700u);  // residents untouched
  for (int i = 0; i < 7; ++i) EXPECT_EQ(store.tier_of(path_of(i)), "ram");
}

TEST(TieredStore, FileLargerThanRamGoesStraightCold) {
  TieredCacheStore store(kRamBytes, test_config());
  ASSERT_TRUE(store.put("/huge", bytes_of(2000), 2000, 0).is_ok());
  EXPECT_EQ(store.tier_of("/huge"), "nvme");
  // And larger than both tiers is a hard refusal.
  EXPECT_EQ(store.put("/too-big", bytes_of(5000), 5000, 0).code(),
            StatusCode::kCapacity);
}

TEST(TieredStore, ColdTierEvictsAtItsOwnWatermark) {
  // NVMe budget 4000, high 3200: demote enough bytes and the cold tier
  // starts truly evicting — the only place data is dropped.
  TieredCacheStore store(kRamBytes, test_config());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  const StoreStats stats = store.stats_snapshot();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.nvme_used_bytes, 4000u);
  EXPECT_LT(store.file_count(), 50u);
}

TEST(TieredStore, OverwriteDropsStaleColdCopy) {
  TieredCacheStore store(kRamBytes, test_config());
  ASSERT_TRUE(store.put("/f", bytes_of(100, 'a'), 100, 1).is_ok());
  // Force /f cold, then overwrite with new bytes (hot).
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  ASSERT_EQ(store.tier_of("/f"), "nvme");
  ASSERT_TRUE(store.put("/f", bytes_of(150, 'b'), 150, 2).is_ok());
  EXPECT_EQ(store.tier_of("/f"), "ram");
  EXPECT_EQ(store.generation_of("/f"), 2u);
  auto got = store.get("/f");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 150u);
  // Exactly one copy remains anywhere.
  EXPECT_EQ(store.size_of("/f").value(), 150u);
}

TEST(TieredStore, EraseAndClearCoverBothTiers) {
  TieredCacheStore store(kRamBytes, test_config());
  ASSERT_TRUE(store.put("/hot", bytes_of(100), 100, 0).is_ok());
  ASSERT_TRUE(store.put("/cold", bytes_of(2000), 2000, 0).is_ok());
  EXPECT_TRUE(store.erase("/hot"));
  EXPECT_TRUE(store.erase("/cold"));
  EXPECT_FALSE(store.erase("/cold"));
  EXPECT_EQ(store.file_count(), 0u);
  ASSERT_TRUE(store.put("/again", bytes_of(2000), 2000, 0).is_ok());
  store.clear();
  EXPECT_EQ(store.file_count(), 0u);
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.device()->file_count(), 0u);
}

TEST(TieredStore, ModelledNvmeLatencyIsPaidOnColdReads) {
  StoreConfig config = test_config();
  config.model_nvme_latency = true;
  config.nvme.op_latency = 2'000'000;  // 2 ms, dwarfs bandwidth terms
  TieredCacheStore store(kRamBytes, config);
  ASSERT_TRUE(store.put("/cold", bytes_of(2000), 2000, 0).is_ok());
  ASSERT_EQ(store.tier_of("/cold"), "nvme");
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(store.get("/cold").is_ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // sleep_for guarantees at-least semantics, so this cannot flake.
  EXPECT_GE(elapsed, std::chrono::milliseconds(2));
}

// A cold get sleeps out its modelled NVMe read with no lock held.  A put
// of a newer version landing in that window must win: the reader may
// serve the bytes it read, but its promotion must neither replace the
// new hot copy (hot variant) nor erase the new cold copy (overflow
// variant).
void race_put_against_cold_read(std::uint64_t new_bytes,
                                const std::string& new_tier) {
  StoreConfig config = test_config();
  config.model_nvme_latency = true;
  config.nvme.op_latency = 0;
  config.nvme.read_bytes_per_second = 500.0;  // 100-byte read: 200 ms
  TieredCacheStore store(kRamBytes, config);
  ASSERT_TRUE(store.put("/f", bytes_of(100, 'a'), 100, 5).is_ok());
  store.flush_hot_to_cold();
  ASSERT_EQ(store.tier_of("/f"), "nvme");

  std::thread reader([&store] { EXPECT_TRUE(store.get("/f").is_ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(
      store.put("/f", bytes_of(new_bytes, 'b'), new_bytes, 7).is_ok());
  reader.join();

  EXPECT_EQ(store.generation_of("/f"), 7u);
  EXPECT_EQ(store.tier_of("/f"), new_tier);
  EXPECT_EQ(store.size_of("/f").value(), new_bytes);
  EXPECT_EQ(store.file_count(), 1u);
  EXPECT_EQ(store.stats_snapshot().promotions, 0u);
  if (new_tier == "ram") {  // a cold get of the overflow copy takes seconds
    auto got = store.get("/f");
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), std::string(new_bytes, 'b'));
  }
}

TEST(TieredStore, ColdPromotionNeverReplacesNewerHotPut) {
  race_put_against_cold_read(100, "ram");
}

TEST(TieredStore, ColdPromotionNeverErasesNewerOverflowPut) {
  race_put_against_cold_read(2 * kRamBytes, "nvme");
}

// --- warm restart ------------------------------------------------------

TEST(TieredStore, WarmRestartRestoresManifestEntries) {
  auto device = std::make_shared<NvmeDevice>(4000);
  {
    TieredCacheStore first(kRamBytes, test_config(), device);
    ASSERT_TRUE(first.put("/a", bytes_of(100, 'a'), 100, 5).is_ok());
    ASSERT_TRUE(first.put("/b", bytes_of(100, 'b'), 100, 6).is_ok());
    first.flush_hot_to_cold();  // clean shutdown: manifest covers all
    ASSERT_EQ(device->file_count(), 2u);
  }  // "crash": store (RAM tier) destroyed, device survives

  TieredCacheStore second(kRamBytes, test_config(), device);
  EXPECT_EQ(second.file_count(), 2u);  // device entries already visible
  const std::size_t restored = second.restore_from_device();
  EXPECT_EQ(restored, 2u);
  auto got = second.get("/a");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().view()[0], 'a');
  const StoreStats stats = second.stats_snapshot();
  EXPECT_EQ(stats.manifest_restored, 2u);
  EXPECT_EQ(stats.manifest_rejected_stale, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(second.generation_of("/b"), 6u);
}

TEST(TieredStore, WarmRestartRejectsStaleGenerations) {
  auto device = std::make_shared<NvmeDevice>(4000);
  {
    TieredCacheStore first(kRamBytes, test_config(), device);
    ASSERT_TRUE(first.put("/stale", bytes_of(100), 100, 3).is_ok());
    ASSERT_TRUE(first.put("/fresh", bytes_of(100), 100, 9).is_ok());
    ASSERT_TRUE(first.put("/unstamped", bytes_of(100), 100, 0).is_ok());
    first.flush_hot_to_cold();
  }
  TieredCacheStore second(kRamBytes, test_config(), device);
  // Authority: the cluster has moved /stale on to generation 7; knows
  // nothing beyond generation 2 for /fresh; never stamped /unstamped.
  const std::size_t restored =
      second.restore_from_device([](const std::string& path) -> std::uint64_t {
        if (path == "/stale") return 7;
        if (path == "/fresh") return 2;
        return 0;
      });
  EXPECT_EQ(restored, 2u);
  const StoreStats stats = second.stats_snapshot();
  EXPECT_EQ(stats.manifest_rejected_stale, 1u);
  EXPECT_FALSE(second.contains("/stale"));  // dropped, not served stale
  EXPECT_TRUE(second.contains("/fresh"));
  EXPECT_TRUE(second.contains("/unstamped"));
}

TEST(TieredStore, ManifestDisabledMeansColdRejoin) {
  StoreConfig config = test_config();
  config.manifest.enabled = false;
  auto device = std::make_shared<NvmeDevice>(4000);
  {
    TieredCacheStore first(kRamBytes, config, device);
    ASSERT_TRUE(first.put("/a", bytes_of(100), 100, 1).is_ok());
    first.flush_hot_to_cold();
    ASSERT_EQ(device->file_count(), 1u);
  }
  TieredCacheStore second(kRamBytes, config, device);
  EXPECT_EQ(second.restore_from_device(), 0u);
  EXPECT_EQ(device->file_count(), 0u);  // volume treated as scratch
}

// --- RAM-only store (no cold tier: the default server cache) -----------

/// `shards` lock stripes under one global LRU budget, no cold tier.
StoreConfig ram_only(std::size_t shards = 1) {
  StoreConfig config;
  config.shards = shards;
  return config;
}

TEST(CacheStore, PutGetRoundTrip) {
  TieredCacheStore cache(1024, ram_only());
  ASSERT_TRUE(cache.put("/a", "hello", 5, 0).is_ok());
  auto got = cache.get("/a");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), "hello");
  EXPECT_EQ(cache.file_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), 5u);
  EXPECT_EQ(cache.device(), nullptr);
}

TEST(CacheStore, MissReturnsNotFound) {
  TieredCacheStore cache(1024, ram_only());
  auto got = cache.get("/missing");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.stats_snapshot().misses, 1u);
}

TEST(CacheStore, HitMissCountersAndRate) {
  TieredCacheStore cache(1024, ram_only());
  ASSERT_TRUE(cache.put("/a", "x", 1, 0).is_ok());
  (void)cache.get("/a");
  (void)cache.get("/a");
  (void)cache.get("/nope");
  const StoreStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.hot_hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_NEAR(stats.hit_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(CacheStore, HitRateEmptyIsZero) {
  TieredCacheStore cache(16, ram_only());
  EXPECT_DOUBLE_EQ(cache.stats_snapshot().hit_ratio(), 0.0);
}

TEST(CacheStore, OverwriteReplacesAndReaccounts) {
  TieredCacheStore cache(100, ram_only());
  ASSERT_TRUE(cache.put("/a", "12345", 5, 0).is_ok());
  ASSERT_TRUE(cache.put("/a", "123", 3, 0).is_ok());
  EXPECT_EQ(cache.used_bytes(), 3u);
  EXPECT_EQ(cache.file_count(), 1u);
  EXPECT_EQ(cache.get("/a").value(), "123");
}

TEST(CacheStore, SizeOnlyMode) {
  // An empty payload with an explicit accounted size.
  TieredCacheStore cache(1ULL << 40, ram_only());
  ASSERT_TRUE(cache.put("/big", common::Buffer{}, 1ULL << 30, 0).is_ok());
  EXPECT_TRUE(cache.contains("/big"));
  EXPECT_EQ(cache.used_bytes(), 1ULL << 30);
  EXPECT_EQ(cache.size_of("/big").value(), 1ULL << 30);
  EXPECT_TRUE(cache.get("/big").value().empty());
}

TEST(CacheStore, RejectsFileLargerThanDevice) {
  TieredCacheStore cache(10, ram_only());
  EXPECT_EQ(cache.put("/huge", "0123456789ABCDEF", 16, 0).code(),
            StatusCode::kCapacity);
  EXPECT_EQ(cache.file_count(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(CacheStore, LruEvictionOrder) {
  TieredCacheStore cache(30, ram_only());
  ASSERT_TRUE(cache.put("/a", std::string(10, 'a'), 10, 0).is_ok());
  ASSERT_TRUE(cache.put("/b", std::string(10, 'b'), 10, 0).is_ok());
  ASSERT_TRUE(cache.put("/c", std::string(10, 'c'), 10, 0).is_ok());
  (void)cache.get("/a");  // /b becomes LRU
  ASSERT_TRUE(cache.put("/d", std::string(10, 'd'), 10, 0).is_ok());
  EXPECT_FALSE(cache.contains("/b"));
  EXPECT_TRUE(cache.contains("/a"));
  EXPECT_TRUE(cache.contains("/c"));
  EXPECT_TRUE(cache.contains("/d"));
  EXPECT_EQ(cache.eviction_count(), 1u);
}

TEST(CacheStore, EvictsMultipleForLargeInsert) {
  TieredCacheStore cache(30, ram_only());
  ASSERT_TRUE(cache.put("/a", std::string(10, 'a'), 10, 0).is_ok());
  ASSERT_TRUE(cache.put("/b", std::string(10, 'b'), 10, 0).is_ok());
  ASSERT_TRUE(cache.put("/c", std::string(10, 'c'), 10, 0).is_ok());
  ASSERT_TRUE(cache.put("/big", std::string(25, 'z'), 25, 0).is_ok());
  EXPECT_TRUE(cache.contains("/big"));
  // 25 bytes fit only after evicting all three 10-byte residents
  // (10 + 25 > 30 even after two evictions).
  EXPECT_EQ(cache.eviction_count(), 3u);
  EXPECT_EQ(cache.used_bytes(), 25u);
}

TEST(CacheStore, ContainsDoesNotTouchRecency) {
  TieredCacheStore cache(20, ram_only());
  ASSERT_TRUE(cache.put("/a", std::string(10, 'a'), 10, 0).is_ok());
  ASSERT_TRUE(cache.put("/b", std::string(10, 'b'), 10, 0).is_ok());
  // contains(/a) must NOT refresh /a, so /a is still LRU and gets evicted.
  EXPECT_TRUE(cache.contains("/a"));
  ASSERT_TRUE(cache.put("/c", std::string(10, 'c'), 10, 0).is_ok());
  EXPECT_FALSE(cache.contains("/a"));
}

TEST(CacheStore, EraseAndClear) {
  TieredCacheStore cache(100, ram_only(4));
  ASSERT_TRUE(cache.put("/a", "1", 1, 0).is_ok());
  ASSERT_TRUE(cache.put("/b", "2", 1, 0).is_ok());
  EXPECT_TRUE(cache.erase("/a"));
  EXPECT_FALSE(cache.erase("/a"));
  EXPECT_EQ(cache.used_bytes(), 1u);
  cache.clear();
  EXPECT_EQ(cache.file_count(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(CacheStore, SizeOfMissingIsNullopt) {
  TieredCacheStore cache(16, ram_only());
  EXPECT_FALSE(cache.size_of("/nope").has_value());
  EXPECT_EQ(cache.tier_of("/nope"), "");
}

TEST(CacheStore, ZeroByteLogicalSize) {
  TieredCacheStore cache(16, ram_only());
  ASSERT_TRUE(cache.put("/meta", "", 0, 0).is_ok());
  EXPECT_TRUE(cache.contains("/meta"));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(RamOnlyStore, PutGetRoundTripIsZeroCopy) {
  TieredCacheStore cache(1 << 20, ram_only(8));
  common::Buffer contents(std::string(256, 'x'));
  ASSERT_TRUE(cache.put("/a", contents, contents.size(), 0).is_ok());
  auto got = cache.get("/a");
  ASSERT_TRUE(got.is_ok());
  // The returned buffer references the stored bytes — no copy was made.
  EXPECT_TRUE(got.value().shares_storage(contents));
  EXPECT_EQ(cache.tier_of("/a"), "ram");
  EXPECT_EQ(cache.stats_snapshot().hot_hits, 1u);
}

TEST(RamOnlyStore, GlobalCapacitySharedAcrossShards) {
  // Capacity fits 3 files of 30 bytes; a 4th insert must evict, no matter
  // which shards the paths hash to.
  TieredCacheStore cache(100, ram_only(4));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.put(path_of(i), std::string(30, 'a'), 30, 0).is_ok());
    EXPECT_LE(cache.used_bytes(), 100u);
  }
  EXPECT_EQ(cache.file_count(), 3u);
  EXPECT_EQ(cache.eviction_count(), 1u);
}

TEST(RamOnlyStore, AnyFileUpToCapacityFits) {
  // One file of exactly the global capacity is admitted (evicting
  // everything else), regardless of shard.
  TieredCacheStore cache(100, ram_only(8));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache.put(path_of(i), std::string(30, 'b'), 30, 0).is_ok());
  }
  ASSERT_TRUE(cache.put("/big", std::string(100, 'B'), 100, 0).is_ok());
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_TRUE(cache.contains("/big"));
}

TEST(RamOnlyStore, FileLargerThanCapacityRejected) {
  TieredCacheStore cache(100, ram_only(8));
  EXPECT_EQ(cache.put("/huge", std::string(101, 'h'), 101, 0).code(),
            StatusCode::kCapacity);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(RamOnlyStore, ReplaceInPlaceAccounting) {
  TieredCacheStore cache(1 << 20, ram_only(8));
  ASSERT_TRUE(cache.put("/a", std::string(100, 'x'), 100, 0).is_ok());
  ASSERT_TRUE(cache.put("/a", std::string(40, 'y'), 40, 0).is_ok());
  EXPECT_EQ(cache.used_bytes(), 40u);
  EXPECT_EQ(cache.file_count(), 1u);
}

// --- RAM-only store striped over several shards ------------------------

TEST(ShardedCacheStore, EraseAndClearAccounting) {
  TieredCacheStore cache(1 << 20, ram_only(8));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cache.put(path_of(i), std::string(10, 'e'), 10, 0).is_ok());
  }
  EXPECT_EQ(cache.used_bytes(), 160u);
  EXPECT_TRUE(cache.erase(path_of(3)));
  EXPECT_FALSE(cache.erase(path_of(3)));
  EXPECT_EQ(cache.used_bytes(), 150u);
  EXPECT_EQ(cache.file_count(), 15u);
  cache.clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.file_count(), 0u);
  EXPECT_FALSE(cache.contains(path_of(0)));
}

TEST(ShardedCacheStore, MissCounted) {
  TieredCacheStore cache(1 << 20, ram_only(8));
  ASSERT_TRUE(cache.put("/a", "x", 1, 0).is_ok());
  EXPECT_EQ(cache.get("/missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.get("/also-missing").status().code(),
            StatusCode::kNotFound);
  (void)cache.get("/a");
  const StoreStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hot_hits, 1u);
}

TEST(RamOnlyStore, PressureEvictsWithoutDemotion) {
  // No cold tier: pressure drops victims inline; nothing moves tiers and
  // no watermark reclaim runs.
  TieredCacheStore cache(kRamBytes, ram_only(4));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cache.put(path_of(i), bytes_of(100), 100, 0).is_ok());
  }
  const StoreStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.evictions, 40u);
  EXPECT_EQ(stats.ram_used_bytes, kRamBytes);
  EXPECT_EQ(stats.demotions + stats.overflow_writes + stats.reclaim_runs +
                stats.nvme_used_bytes,
            0u);
  EXPECT_EQ(cache.capacity_bytes(), kRamBytes);
}

TEST(NvmeDeviceUnit, WriteReadEraseAccounting) {
  NvmeDevice device(1000);
  ASSERT_TRUE(device.write("/a", {bytes_of(300), 300, 4}).is_ok());
  EXPECT_EQ(device.used_bytes(), 300u);
  EXPECT_EQ(device.generation_of("/a").value(), 4u);
  ASSERT_TRUE(device.write("/a", {bytes_of(100), 100, 5}).is_ok());
  EXPECT_EQ(device.used_bytes(), 100u);  // overwrite replaces accounting
  EXPECT_EQ(device.read("/a").value().bytes, 100u);
  EXPECT_FALSE(device.read("/missing").has_value());
  EXPECT_EQ(device.write("/big", {bytes_of(2000), 2000, 0}).code(),
            StatusCode::kCapacity);
  // A conditional erase drops only the version it names.
  const std::uint64_t version = device.read("/a").value().version;
  ASSERT_TRUE(device.write("/a", {bytes_of(100), 100, 6}).is_ok());
  EXPECT_FALSE(device.erase_version("/a", version));
  EXPECT_TRUE(device.erase_version("/a", device.read("/a").value().version));
  EXPECT_FALSE(device.contains("/a"));
  EXPECT_EQ(device.used_bytes(), 0u);
  EXPECT_EQ(device.writes(), 3u);
  EXPECT_EQ(device.reads(), 3u);
}

}  // namespace
}  // namespace ftc::store
