// Pluggable eviction policies: ordering semantics per policy, the same
// policies driving the RAM-only store's inline eviction, plus the
// scan-resistance regression (the reason S3-FIFO/GDSF exist here at all:
// one sequential epoch over a 4x-RAM dataset must not flush the hot set).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "store/eviction.hpp"
#include "store/tiered_store.hpp"

namespace ftc::store {
namespace {

std::string key_of(int i) { return "/k/" + std::to_string(i); }

TEST(PolicyKindNames, ParseRoundTrip) {
  for (const PolicyKind kind : {PolicyKind::kLru, PolicyKind::kFifo,
                                PolicyKind::kS3Fifo, PolicyKind::kGdsf}) {
    const auto parsed = parse_policy_kind(policy_kind_name(kind));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), kind);
    EXPECT_EQ(make_eviction_policy(kind)->kind(), kind);
  }
  EXPECT_FALSE(parse_policy_kind("clock").is_ok());
  EXPECT_FALSE(parse_policy_kind("").is_ok());
}

TEST(EvictionPolicyName, Names) {
  EXPECT_STREQ(policy_kind_name(PolicyKind::kLru), "lru");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kFifo), "fifo");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kS3Fifo), "s3fifo");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kGdsf), "gdsf");
}

// --- the policies driving the RAM-only store (the server's cache) ------

/// A RAM-only store of `capacity` bytes in one shard, so eviction order
/// is exactly the policy's.
std::unique_ptr<TieredCacheStore> ram_store(std::uint64_t capacity,
                                            PolicyKind policy) {
  StoreConfig config;
  config.policy = policy;
  config.shards = 1;
  return std::make_unique<TieredCacheStore>(capacity, config);
}

void fill(TieredCacheStore& cache, int count, std::uint64_t size = 10) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(cache.put(key_of(i), std::string(size, 'x'), size, 0).is_ok());
  }
}

TEST(FifoEviction, ReadDoesNotRescue) {
  auto cache = ram_store(30, PolicyKind::kFifo);
  fill(*cache, 3);
  // Touch key 0 heavily; FIFO evicts it anyway (oldest insertion).
  for (int i = 0; i < 5; ++i) (void)cache->get(key_of(0));
  ASSERT_TRUE(cache->put(key_of(3), std::string(10, 'x'), 10, 0).is_ok());
  EXPECT_FALSE(cache->contains(key_of(0)));
  EXPECT_TRUE(cache->contains(key_of(1)));
}

TEST(LruEviction, ReadRescues) {
  auto cache = ram_store(30, PolicyKind::kLru);
  fill(*cache, 3);
  (void)cache->get(key_of(0));
  ASSERT_TRUE(cache->put(key_of(3), std::string(10, 'x'), 10, 0).is_ok());
  EXPECT_TRUE(cache->contains(key_of(0)));
  EXPECT_FALSE(cache->contains(key_of(1)));
}

TEST(EvictionPolicies, ConservationUnderChurn) {
  for (const PolicyKind kind : {PolicyKind::kLru, PolicyKind::kFifo,
                                PolicyKind::kS3Fifo, PolicyKind::kGdsf}) {
    auto cache = ram_store(1000, kind);
    Rng rng(7);
    for (int round = 0; round < 2000; ++round) {
      const int i = static_cast<int>(rng.below(200));
      if (rng.chance(0.5)) {
        const std::uint64_t size = 10 + rng.below(40);
        ASSERT_TRUE(
            cache->put(key_of(i), std::string(size, 'y'), size, 0).is_ok());
      } else {
        (void)cache->get(key_of(i));
      }
      ASSERT_LE(cache->used_bytes(), 1000u) << policy_kind_name(kind);
    }
    EXPECT_GT(cache->eviction_count(), 0u) << policy_kind_name(kind);
  }
}

TEST(EvictionPolicies, LruBeatsFifoOnSkewedAccess) {
  // 80/20 hot-set workload under pressure: LRU's recency tracking must
  // yield at least as good a hit rate as FIFO's insertion order.
  auto run = [](PolicyKind kind) {
    auto cache = ram_store(400, kind);
    Rng rng(99);
    for (int op = 0; op < 20000; ++op) {
      const bool hot = rng.chance(0.8);
      const int i = hot ? static_cast<int>(rng.below(20))
                        : 20 + static_cast<int>(rng.below(200));
      if (!cache->get(key_of(i)).is_ok()) {
        (void)cache->put(key_of(i), std::string(10, 'z'), 10, 0);
      }
    }
    return cache->stats_snapshot().hit_ratio();
  };
  EXPECT_GE(run(PolicyKind::kLru) + 1e-9, run(PolicyKind::kFifo));
}

TEST(ListPolicies, LruRefreshesOnHitFifoDoesNot) {
  auto lru = make_eviction_policy(PolicyKind::kLru);
  auto fifo = make_eviction_policy(PolicyKind::kFifo);
  for (auto* policy : {lru.get(), fifo.get()}) {
    policy->on_insert("/a", 10);
    policy->on_insert("/b", 10);
    policy->on_insert("/c", 10);
    policy->on_hit("/a");
  }
  // LRU: the hit moved /a to the front, so /b is oldest.
  EXPECT_EQ(lru->pop_victim().value(), "/b");
  // FIFO: insertion order rules regardless of hits.
  EXPECT_EQ(fifo->pop_victim().value(), "/a");
}

TEST(EveryPolicy, UnknownKeysIgnoredAndEmptyPopsNullopt) {
  for (const PolicyKind kind : {PolicyKind::kLru, PolicyKind::kFifo,
                                PolicyKind::kS3Fifo, PolicyKind::kGdsf}) {
    auto policy = make_eviction_policy(kind);
    policy->on_hit("/ghost");
    policy->on_erase("/ghost");
    EXPECT_FALSE(policy->pop_victim().has_value()) << policy_kind_name(kind);
    EXPECT_EQ(policy->tracked(), 0u);
  }
}

TEST(EveryPolicy, DuplicateInsertReplacesInsteadOfLeaking) {
  // Overwrite path: re-inserting a tracked key must not leave a dangling
  // second node that later surfaces as a duplicate victim.
  for (const PolicyKind kind : {PolicyKind::kLru, PolicyKind::kFifo,
                                PolicyKind::kS3Fifo, PolicyKind::kGdsf}) {
    auto policy = make_eviction_policy(kind);
    policy->on_insert("/a", 10);
    policy->on_insert("/b", 10);
    policy->on_insert("/a", 20);  // overwrite with a different size
    EXPECT_EQ(policy->tracked(), 2u) << policy_kind_name(kind);
    std::multiset<std::string> victims;
    while (auto victim = policy->pop_victim()) victims.insert(*victim);
    EXPECT_EQ(victims.count("/a"), 1u) << policy_kind_name(kind);
    EXPECT_EQ(victims.count("/b"), 1u) << policy_kind_name(kind);
  }
}

TEST(EveryPolicy, PopDrainsAllTrackedKeysExactlyOnce) {
  for (const PolicyKind kind : {PolicyKind::kLru, PolicyKind::kFifo,
                                PolicyKind::kS3Fifo, PolicyKind::kGdsf}) {
    auto policy = make_eviction_policy(kind);
    for (int i = 0; i < 50; ++i) policy->on_insert(key_of(i), 10);
    for (int i = 0; i < 50; i += 3) policy->on_hit(key_of(i));
    std::set<std::string> victims;
    while (auto victim = policy->pop_victim()) {
      EXPECT_TRUE(victims.insert(*victim).second)
          << policy_kind_name(kind) << " duplicated " << *victim;
    }
    EXPECT_EQ(victims.size(), 50u) << policy_kind_name(kind);
    EXPECT_EQ(policy->tracked(), 0u);
  }
}

TEST(S3Fifo, OneTouchEntriesDieBeforeReReferencedOnes) {
  auto policy = make_eviction_policy(PolicyKind::kS3Fifo);
  policy->on_insert("/hot", 10);
  policy->on_hit("/hot");  // proves reuse while probationary
  policy->on_insert("/scan1", 10);
  policy->on_insert("/scan2", 10);
  // Both one-touch scan keys must fall before the re-referenced key.
  const auto first = policy->pop_victim().value();
  const auto second = policy->pop_victim().value();
  EXPECT_TRUE(first == "/scan1" || first == "/scan2");
  EXPECT_TRUE(second == "/scan1" || second == "/scan2");
  EXPECT_EQ(policy->pop_victim().value(), "/hot");
}

TEST(S3Fifo, GhostQueueFastTracksReAdmission) {
  auto policy = make_eviction_policy(PolicyKind::kS3Fifo);
  policy->on_insert("/victim", 10);
  ASSERT_EQ(policy->pop_victim().value(), "/victim");  // remembered as ghost
  // Re-admission after a ghost hit enters main directly: a fresh
  // probationary key now evicts first.
  policy->on_insert("/victim", 10);
  policy->on_insert("/fresh", 10);
  EXPECT_EQ(policy->pop_victim().value(), "/fresh");
}

TEST(Gdsf, FrequentSmallEntriesOutliveBigOneTouch) {
  auto policy = make_eviction_policy(PolicyKind::kGdsf);
  policy->on_insert("/small-hot", 4 << 10);
  for (int i = 0; i < 4; ++i) policy->on_hit("/small-hot");
  policy->on_insert("/big-cold", 1 << 20);
  EXPECT_EQ(policy->pop_victim().value(), "/big-cold");
}

TEST(Gdsf, InflationAgesOutIdleFrequentEntries) {
  auto policy = make_eviction_policy(PolicyKind::kGdsf);
  policy->on_insert("/once-hot", 8 << 10);
  for (int i = 0; i < 3; ++i) policy->on_hit("/once-hot");
  // A long churn of one-touch keys raises the inflation floor past the
  // idle entry's priority: fresh keys eventually outrank it (plain LFU
  // would protect it forever).
  bool aged_out = false;
  for (int i = 0; i < 64 && !aged_out; ++i) {
    policy->on_insert(key_of(i), 8 << 10);
    const auto victim = policy->pop_victim();
    ASSERT_TRUE(victim.has_value());
    aged_out = (*victim == "/once-hot");
  }
  EXPECT_TRUE(aged_out);
}

// --------------------------------------------------------------------
// Scan-resistance regression.  A fixed-slot cache simulated directly on
// the policy: warm a hot set with repeated hits, then stream one
// sequential epoch of a dataset 4x the cache.  LRU must lose the entire
// hot set (every scan key displaces the oldest resident); S3-FIFO and
// GDSF must keep it (one-touch scan keys never displace proven-reuse
// entries).
std::size_t hot_survivors(PolicyKind kind, std::uint64_t scan_bytes) {
  constexpr int kSlots = 32;
  constexpr int kHot = 8;
  constexpr int kScan = kSlots * 4;
  auto policy = make_eviction_policy(kind);
  std::set<std::string> resident;

  const auto insert_full = [&](const std::string& key, std::uint64_t bytes) {
    while (resident.size() >= static_cast<std::size_t>(kSlots)) {
      const auto victim = policy->pop_victim();
      ASSERT_TRUE(victim.has_value());
      resident.erase(*victim);
    }
    policy->on_insert(key, bytes);
    resident.insert(key);
  };

  for (int i = 0; i < kHot; ++i) {
    insert_full("/hot/" + std::to_string(i), 1 << 10);
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kHot; ++i) policy->on_hit("/hot/" + std::to_string(i));
  }
  for (int i = 0; i < kScan; ++i) {
    insert_full("/scan/" + std::to_string(i), scan_bytes);
  }

  std::size_t survivors = 0;
  for (int i = 0; i < kHot; ++i) {
    survivors += resident.count("/hot/" + std::to_string(i));
  }
  return survivors;
}

TEST(ScanResistance, SequentialEpochFlushesLruButNotS3Fifo) {
  // Same-size scan: pure recency (LRU) loses everything, reuse-aware
  // admission (S3-FIFO) loses nothing.
  EXPECT_EQ(hot_survivors(PolicyKind::kLru, 1 << 10), 0u);
  EXPECT_EQ(hot_survivors(PolicyKind::kS3Fifo, 1 << 10), 8u);
}

TEST(ScanResistance, GdsfProtectsHotSetAgainstLargeScanObjects) {
  // GDSF's scan resistance is SIZE-aware: each evicted scan object only
  // raises the inflation floor by freq/size, so a stream of large
  // one-touch objects (checkpoint shards, raw media) cannot outbid the
  // small frequent hot set.  A uniform-size scan, by contrast, ratchets
  // inflation by 1 per eviction and legitimately ages the hot set out —
  // that aging is the mechanism InflationAgesOutIdleFrequentEntries
  // asserts, so GDSF is exercised here with the workload its heuristic
  // is built for.
  EXPECT_EQ(hot_survivors(PolicyKind::kGdsf, 1 << 20), 8u);
  EXPECT_EQ(hot_survivors(PolicyKind::kLru, 1 << 20), 0u);
}

}  // namespace
}  // namespace ftc::store
