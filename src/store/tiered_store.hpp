// tiered_store.hpp - The node-local cache store: a RAM tier, plus an
// optional NVMe tier with background reclaim.
//
// Every HVAC server caches through this one store.  Two shapes, chosen by
// `StoreConfig::nvme_bytes`:
//
//   RAM-only (nvme_bytes == 0, the default)
//                    lock-striped shards of path -> Buffer under one
//                    global byte budget; any file up to the budget fits,
//                    whichever shard it hashes to.  A put that would
//                    exceed the budget evicts victims inline: its own
//                    shard first, then the other shards round-robin.
//   tiered (nvme_bytes > 0)
//                    the same hot tier, plus a cold tier on an NvmeDevice
//                    whose hits pay modelled NVMe latency and promote the
//                    entry back to RAM.
//
// In the tiered shape pressure moves data DOWN the hierarchy instead of
// deleting it:
//   demotion   RAM victim -> NVMe write (background reclaim)
//   eviction   NVMe victim -> gone (the only true data loss)
//
// Reclaim is watermark-driven: a dedicated thread wakes when a tier
// exceeds high_watermark x budget and drains it to low_watermark.  Puts
// NEVER block on reclaim — a put that would overshoot the RAM hard cap
// routes the payload straight to the cold tier (an overflow write, the
// price a full RAM tier costs on a real box) and returns.  There is no
// kBusy on this path and no wait on the reclaim thread, which is what
// the p99-under-reclaim gate in bench_pressure enforces.
//
// Ordering within each tier is delegated to a per-shard EvictionPolicy
// object (store/eviction.hpp), so hits are a refcount bump (zero-copy)
// plus one policy update.
//
// Warm restart: payloads and the manifest index live on the NvmeDevice,
// which the cluster owns per node and hands to each server incarnation.
// restore_from_device() rebuilds the cold tier from the manifest,
// re-validating each entry's generation against a caller-supplied
// authority (the replication ledger) — stale entries are dropped, the
// rest serve without a PFS read.
//
// Lock hierarchy (DESIGN.md §14): at most ONE store mutex is held at a
// time — shard locks, the cold-tier lock and the device's index lock
// never nest.  Tier moves and cross-shard evictions release the source
// lock before touching the destination; modelled NVMe sleeps happen
// under no lock at all.
//
// Thread safety: fully internally synchronized.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/stats_macros.hpp"
#include "common/status.hpp"
#include "store/eviction.hpp"
#include "store/nvme_device.hpp"
#include "store/store_config.hpp"

namespace ftc::store {

/// TieredCacheStore's counters, the one definition of each: X(field,
/// metric[, label key, label value]) (common/stats_macros.hpp).  Expands
/// to StoreStats, the store's atomic twin, stats_snapshot() and the
/// store's block of Cluster::collect_metrics, where `policy` names the
/// node's eviction policy.
#define FTC_STORE_STATS(X)                                                   \
  X(cold_hits, "ftc_store_hits_total", "tier", "nvme") /* paid latency */    \
  X(misses, "ftc_store_misses_total")                                        \
  X(demotions, "ftc_store_demotions_total")   /* RAM -> NVMe (pressure) */   \
  X(promotions, "ftc_store_promotions_total") /* NVMe -> RAM (cold hit) */   \
  /* dropped from the store entirely */                                      \
  X(evictions, "ftc_store_evictions_total", "policy", policy)                \
  X(reclaim_runs, "ftc_store_reclaim_runs_total") /* background reclaims */  \
  /* puts routed to NVMe at the RAM hard cap */                              \
  X(overflow_writes, "ftc_store_overflow_writes_total")                      \
  /* warm-restart entries kept / dropped for a stale generation */           \
  X(manifest_restored, "ftc_store_manifest_restored_total")                  \
  X(manifest_rejected_stale, "ftc_store_manifest_rejected_stale_total")

/// Tier/pressure telemetry.  Without a cold tier the nvme row and the
/// tier-move counters stay 0.
struct StoreStats {
  // Read from the tiers' occupancy, not counted, so not in the list.
  std::uint64_t ram_used_bytes = 0;
  std::uint64_t nvme_used_bytes = 0;
  /// Served from RAM (zero-copy).  Not in the list: each shard counts its
  /// own under its lock, and stats_snapshot() sums them.
  std::uint64_t hot_hits = 0;
  FTC_STORE_STATS(FTC_STATS_FIELD)

  /// Hits over lookups (0 before the first lookup).
  [[nodiscard]] double hit_ratio() const {
    const std::uint64_t hits = hot_hits + cold_hits;
    const std::uint64_t lookups = hits + misses;
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
  }
};

class TieredCacheStore {
 public:
  /// `ram_bytes` is the hot tier's budget.  `device` is the node's NVMe
  /// volume; pass the cluster-owned instance so cold-tier state survives
  /// server restarts, or nullptr to let the store own a private device
  /// (unit tests, benches).  Without a cold tier (`config.nvme_bytes`
  /// 0) there is no device and `device` is ignored.  Throws
  /// std::invalid_argument when `ram_bytes` is 0 or `config.validate()`
  /// rejects.
  TieredCacheStore(std::uint64_t ram_bytes, const StoreConfig& config,
                   std::shared_ptr<NvmeDevice> device = nullptr);
  ~TieredCacheStore();

  TieredCacheStore(const TieredCacheStore&) = delete;
  TieredCacheStore& operator=(const TieredCacheStore&) = delete;

  /// Inserts/overwrites a file.  `generation` is the replication-ledger
  /// stamp (0 = unstamped fill), persisted into the manifest.  kCapacity
  /// when the file is larger than every tier, or (RAM-only) when
  /// concurrent reservations transiently claim the whole budget.
  Status put(const std::string& path, common::Buffer contents,
             std::uint64_t logical_size, std::uint64_t generation);
  /// Zero-copy on a hot hit; a cold hit pays NVMe latency and promotes.
  StatusOr<common::Buffer> get(const std::string& path);
  /// Presence check; never refreshes recency.
  [[nodiscard]] bool contains(const std::string& path) const;
  [[nodiscard]] std::optional<std::uint64_t> size_of(
      const std::string& path) const;
  bool erase(const std::string& path);
  void clear();

  [[nodiscard]] std::size_t file_count() const;
  [[nodiscard]] std::uint64_t used_bytes() const;
  /// Combined budget (RAM + NVMe) — what "cache capacity" means to the
  /// rest of the system.
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return ram_bytes_ + config_.nvme_bytes;
  }
  [[nodiscard]] std::uint64_t eviction_count() const {
    return stats_.evictions.load(std::memory_order_relaxed);
  }
  [[nodiscard]] StoreStats stats_snapshot() const;

  /// Which tier currently holds `path` ("ram" / "nvme" / "" = absent);
  /// tests and telemetry only.
  [[nodiscard]] std::string tier_of(const std::string& path) const;

  /// Generation stamp recorded for `path` (0 when absent/unstamped).
  [[nodiscard]] std::uint64_t generation_of(const std::string& path) const;

  /// Authority consulted per manifest entry on warm restart: returns the
  /// minimum acceptable generation for a path (0 = no knowledge, accept).
  using GenerationAuthority =
      std::function<std::uint64_t(const std::string& path)>;

  /// Rebuilds the cold tier from the device's manifest: entries whose
  /// stored generation is below the authority's floor are dropped as
  /// stale (and erased from the device); the rest become servable
  /// without a PFS read.  Returns the number restored (0 without a cold
  /// tier).  With config.manifest.enabled false the device is wiped
  /// instead (cold rejoin semantics).
  std::size_t restore_from_device(const GenerationAuthority& authority = {});

  /// Demotes every hot entry to the cold tier (clean shutdown: makes the
  /// manifest cover the full cache before a planned restart).  No-op
  /// without a cold tier.
  void flush_hot_to_cold();

  /// Blocks until the reclaim thread has drained both tiers below their
  /// high watermarks (test synchronization; no-op when inline).
  void wait_reclaimed();

  [[nodiscard]] const StoreConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t ram_bytes() const { return ram_bytes_; }
  /// The cold tier's volume; nullptr without a cold tier.
  [[nodiscard]] const NvmeDevice* device() const { return device_.get(); }

 private:
  struct HotEntry {
    common::Buffer contents;
    std::uint64_t bytes = 0;
    std::uint64_t generation = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, HotEntry> entries;
    std::unique_ptr<EvictionPolicy> policy;
    /// Bumped under the lock by every put/erase/clear touching the shard.
    /// A cold read records it before its unlocked NVMe sleep and promotes
    /// only if it is unchanged afterwards, so a promotion can never
    /// replace or delete a version written while it slept.
    std::uint64_t writes = 0;
    /// RAM hits, counted under the lock: a shared atomic would make every
    /// concurrent hit on any shard contend for one cache line.
    std::uint64_t hot_hits = 0;
  };

  [[nodiscard]] std::size_t shard_for(const std::string& path) const;

  /// Inserts into the hot tier; returns false when the bytes do not fit
  /// (tiered: the caller overflows to cold; RAM-only: peers held nothing
  /// more to evict).  Replaces any pre-existing hot entry for the path.
  bool put_hot(const std::string& path, const common::Buffer& contents,
               std::uint64_t bytes, std::uint64_t generation);

  /// Moves a cold read back into RAM, unless a write reached the shard
  /// since `writes_seen` or the RAM hard cap would be overshot.
  bool promote(const std::string& path, const NvmeDevice::Entry& entry,
               std::uint64_t writes_seen);

  /// Drops `path`'s hot entry (shard lock held); false when absent.
  bool drop_hot_locked(Shard& shard, const std::string& path);

  /// Removes `path` from its hot shard and counts it as a write.
  bool take_hot(const std::string& path);

  /// Evicts one victim from `shard` (lock held) per its policy; returns
  /// the freed bytes, 0 when the shard is empty.
  std::uint64_t evict_hot_locked(Shard& shard);

  /// RAM-only pressure: evicts round-robin across the shards, one lock
  /// at a time, until the budget fits or no shard yields bytes.  Returns
  /// true when the budget fits.
  bool evict_across_shards();

  /// Writes into the cold tier (pays NVMe latency), updates the cold
  /// policy, and enforces the NVMe hard cap inline by evicting victims.
  Status put_cold(const std::string& path, common::Buffer contents,
                  std::uint64_t bytes, std::uint64_t generation);

  /// Drops `path` from cold tier bookkeeping + device; false when absent.
  bool erase_cold(const std::string& path);

  /// One full reclaim pass: RAM above high watermark -> demote to low;
  /// NVMe above high watermark -> evict to low.
  void reclaim_pass();
  void demote_until(std::uint64_t ram_target);
  void evict_cold_until(std::uint64_t nvme_target);
  void kick_reclaim();
  void reclaim_loop();

  [[nodiscard]] std::uint64_t ram_high_bytes() const {
    return static_cast<std::uint64_t>(config_.high_watermark *
                                      static_cast<double>(ram_bytes_));
  }
  [[nodiscard]] std::uint64_t ram_low_bytes() const {
    return static_cast<std::uint64_t>(config_.low_watermark *
                                      static_cast<double>(ram_bytes_));
  }
  [[nodiscard]] std::uint64_t nvme_high_bytes() const {
    return static_cast<std::uint64_t>(
        config_.high_watermark * static_cast<double>(config_.nvme_bytes));
  }
  [[nodiscard]] std::uint64_t nvme_low_bytes() const {
    return static_cast<std::uint64_t>(
        config_.low_watermark * static_cast<double>(config_.nvme_bytes));
  }

  struct AtomicStats {
    FTC_STORE_STATS(FTC_STATS_ATOMIC)
  };

  std::uint64_t ram_bytes_;
  StoreConfig config_;
  /// The cold tier's volume; null without a cold tier.
  std::shared_ptr<NvmeDevice> device_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> ram_used_{0};

  /// Cold-tier ordering state.  Guards the policy ONLY — device index
  /// mutations happen through the device's own lock, and the two are
  /// never held together (the policy is advisory: a victim that has
  /// already vanished from the device is simply skipped).
  mutable std::mutex cold_mutex_;
  std::unique_ptr<EvictionPolicy> cold_policy_;

  AtomicStats stats_;
  std::atomic<std::size_t> demote_hand_{0};
  std::atomic<std::size_t> evict_hand_{0};  ///< round-robin steal cursor
  /// Puts that reached the hot tier (seq_cst): lets a cross-shard sweep
  /// that found nothing tell "nothing to evict" from "refilled behind it".
  std::atomic<std::uint64_t> hot_inserts_{0};

  // Reclaim thread plumbing (background mode only).
  std::mutex reclaim_mutex_;
  std::condition_variable reclaim_cv_;
  std::condition_variable reclaim_idle_cv_;
  bool reclaim_requested_ = false;
  bool reclaim_active_ = false;
  bool shutdown_ = false;
  std::thread reclaim_thread_;
};

}  // namespace ftc::store
