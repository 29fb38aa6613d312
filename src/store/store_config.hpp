// store_config.hpp - Knobs for the node-local cache store.
//
// One nested block under HvacServerConfig (`server.store.*`).  The RAM
// (hot) tier's budget is the server's `cache_capacity_bytes`; this block
// holds everything else.  With `nvme_bytes` 0 (the default) the store is
// RAM-only: a put that would exceed the budget evicts victims inline,
// and the watermark / reclaim / NVMe-model / manifest knobs are inert.
// `nvme_bytes > 0` adds the cold NVMe tier those knobs govern.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/status.hpp"
#include "storage/nvme_model.hpp"
#include "store/eviction.hpp"

namespace ftc::store {

struct StoreConfig {
  /// Cold-tier (NVMe) budget.  0 = no cold tier.  Above 0 the store
  /// demotes RAM victims here instead of deleting them; cold hits pay
  /// modelled NVMe latency and promote back to RAM.
  std::uint64_t nvme_bytes = 0;

  /// Victim selection, used by every tier (each hot shard and the cold
  /// tier run their own instance): lru | fifo | s3fifo | gdsf.
  PolicyKind policy = PolicyKind::kLru;

  /// Watermark pair driving background reclaim, as fractions of each
  /// tier's budget: reclaim starts above `high_watermark` and drains the
  /// tier to `low_watermark`.  Writes never wait for reclaim — a put
  /// that would overshoot the RAM hard cap overflows straight into the
  /// cold tier instead of blocking.
  double low_watermark = 0.75;
  double high_watermark = 0.90;

  /// Lock stripes for the hot tier.
  std::size_t shards = 8;

  /// Dedicated reclaim thread (the production mode).  Off = reclaim runs
  /// inline at the end of each put — deterministic for unit tests.
  bool background_reclaim = true;

  /// Price cold-tier accesses at real NVMe service times (Table II via
  /// `nvme`); off keeps the device a plain map (fast tests).
  bool model_nvme_latency = false;
  /// Bandwidth/op-latency numbers for the modelled device.  Its
  /// capacity_bytes field is ignored — `nvme_bytes` governs capacity.
  storage::NvmeConfig nvme;

  struct ManifestConfig {
    /// Warm restart: a restarted server rebuilds its cold tier from the
    /// device's crash-consistent manifest, re-validating entries by
    /// generation.  Off = a restart treats the device as scratch (wipes
    /// it), the cold-rejoin behaviour.
    bool enabled = true;
  } manifest;

  [[nodiscard]] bool has_cold_tier() const { return nvme_bytes > 0; }

  [[nodiscard]] Status validate() const {
    if (shards == 0) {
      return Status::invalid_argument("store.shards must be >= 1");
    }
    if (low_watermark <= 0.0 || low_watermark >= 1.0 ||
        high_watermark <= 0.0 || high_watermark > 1.0 ||
        low_watermark >= high_watermark) {
      return Status::invalid_argument(
          "store watermarks must satisfy 0 < low < high <= 1");
    }
    if (model_nvme_latency && (nvme.read_bytes_per_second <= 0.0 ||
                               nvme.write_bytes_per_second <= 0.0)) {
      return Status::invalid_argument(
          "store.model_nvme_latency needs positive NVMe bandwidths");
    }
    return Status::ok();
  }
};

}  // namespace ftc::store
