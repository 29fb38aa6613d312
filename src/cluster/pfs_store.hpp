// pfs_store.hpp - Threaded-substrate stand-in for the Lustre PFS.
//
// Holds the authoritative copy of every training file (the paper's Orion
// holds the dataset; caches are derived state).  Reads optionally sleep a
// configurable latency so integration tests can observe the NVMe-vs-PFS
// cost gap.  Thread-safe: many clients and servers read concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/buffer.hpp"
#include "common/status.hpp"

namespace ftc::cluster {

class PfsStore {
 public:
  explicit PfsStore(
      std::chrono::microseconds read_latency = std::chrono::microseconds{0});

  /// Stores/overwrites a file (dataset staging; not latency-modelled).
  void put(const std::string& path, common::Buffer contents);

  /// Reads a file, sleeping the configured latency first.  Returns a
  /// refcounted reference to the stored bytes — the transfer cost is
  /// modelled by the latency, not by a heap copy.
  StatusOr<common::Buffer> read(const std::string& path) const;

  [[nodiscard]] bool contains(const std::string& path) const;
  [[nodiscard]] std::size_t file_count() const;

  /// Total reads served — the metric the FT designs try to minimize.
  [[nodiscard]] std::uint64_t read_count() const { return reads_.load(); }

  /// Reads served for one specific path.  The failover-storm bench uses
  /// per-path deltas to measure *duplicate* fetches of a lost file — the
  /// quantity singleflight is supposed to pin at one.
  [[nodiscard]] std::uint64_t read_count(const std::string& path) const;

  void set_read_latency(std::chrono::microseconds latency) {
    read_latency_ = latency;
  }
  [[nodiscard]] std::chrono::microseconds read_latency() const {
    return read_latency_;
  }

  /// Caps how many latency-modelled reads the PFS services at once
  /// (a job's share of Lustre OSTs is finite; excess readers wait and
  /// their effective latency stretches).  Waiters are not served in
  /// arrival order: the condition variable wakes them in no set order,
  /// and a newly arriving reader can take a freed slot before a woken
  /// one.  0 = unlimited, the legacy behaviour — and the default, so
  /// existing callers are unaffected.
  /// This is what makes duplicate failover-storm fetches *cost*
  /// something: N concurrent fetches through S slots take ~ceil(N/S)
  /// service times, not one.
  void set_service_concurrency(std::uint32_t slots);
  [[nodiscard]] std::uint32_t service_concurrency() const;

  /// Generates `count` synthetic files of `bytes` each under `prefix`,
  /// with deterministic pseudo-random contents (seeded by the index).
  void populate_synthetic(const std::string& prefix, std::uint32_t count,
                          std::uint32_t bytes);

 private:
  std::chrono::microseconds read_latency_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, common::Buffer> files_;
  mutable std::atomic<std::uint64_t> reads_{0};
  /// Per-path counters live under their own mutex: read() holds mutex_
  /// only shared, so it cannot mutate a map guarded by it.
  mutable std::mutex per_path_mutex_;
  mutable std::unordered_map<std::string, std::uint64_t> per_path_reads_;
  /// Service-bandwidth model (see set_service_concurrency).
  mutable std::mutex service_mutex_;
  mutable std::condition_variable service_cv_;
  std::uint32_t service_slots_ = 0;  ///< 0 = unlimited
  mutable std::uint32_t service_in_use_ = 0;
};

}  // namespace ftc::cluster
