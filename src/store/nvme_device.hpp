// nvme_device.hpp - The node-local NVMe volume the cold tier lives on.
//
// Separated from TieredCacheStore for one reason: LIFETIME.  A node
// crash destroys the server process — and with it the store object, the
// RAM tier, and every in-flight request — but the NVMe volume and the
// bytes on it survive.  The cluster harness therefore owns one NvmeDevice
// per node and hands it to each incarnation of that node's server; a
// warm restart is "new store, old device".  Payloads AND the manifest
// index live here, updated in the same critical section (journal-style),
// so the manifest can never describe bytes the device does not hold.
//
// Latency: every read/write pays the uncontended NVMe service time from
// storage::NvmeConfig (op latency + bytes/bandwidth) when modelling is
// on — computed under no lock and slept outside the index mutex, so a
// slow cold read never serializes unrelated device traffic.  Off (the
// default) the device is a plain thread-safe map, which keeps unit tests
// fast and the legacy substrate untouched.
//
// Thread safety: fully internally synchronized.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/buffer.hpp"
#include "storage/nvme_model.hpp"
#include "store/manifest.hpp"

namespace ftc::store {

class NvmeDevice {
 public:
  /// `capacity_bytes` is the usable cold-tier budget; `model_latency`
  /// prices each access per `nvme` (Table II defaults).
  NvmeDevice(std::uint64_t capacity_bytes, bool model_latency = false,
             storage::NvmeConfig nvme = {});

  struct Entry {
    common::Buffer contents;
    std::uint64_t bytes = 0;
    std::uint64_t generation = 0;
    /// Assigned by write(), unique per write: names the exact version a
    /// read saw, so a later erase_version() cannot drop a newer write.
    std::uint64_t version = 0;
  };

  /// Writes/overwrites an entry, paying write latency.  The caller is
  /// responsible for capacity policy (the tiered store evicts via its
  /// cold-tier policy); the device only refuses single files larger than
  /// the whole volume.
  Status write(const std::string& path, Entry entry);

  /// Reads an entry, paying read latency; nullopt when absent.
  std::optional<Entry> read(const std::string& path);

  /// Index-only lookup: no latency (metadata lives in the device's RAM-
  /// backed index block, as on a real log-structured cache device).
  [[nodiscard]] bool contains(const std::string& path) const;
  [[nodiscard]] std::optional<std::uint64_t> size_of(
      const std::string& path) const;
  [[nodiscard]] std::optional<std::uint64_t> generation_of(
      const std::string& path) const;

  /// Removes one entry (index op, no latency); false when absent.
  bool erase(const std::string& path);
  /// Removes `path` only while it still holds the write `version` names;
  /// false when absent or overwritten since.
  bool erase_version(const std::string& path, std::uint64_t version);

  /// Wipes payloads and index (models volume re-format on cold rejoin).
  void clear();

  [[nodiscard]] std::uint64_t used_bytes() const;
  [[nodiscard]] std::size_t file_count() const;
  [[nodiscard]] std::uint64_t capacity_bytes() const { return capacity_; }

  /// Snapshot of the on-device index — the crash-consistent manifest.
  [[nodiscard]] Manifest manifest() const;

  // Telemetry.
  [[nodiscard]] std::uint64_t reads() const {
    return reads_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t writes() const {
    return writes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  void pay(SimTime latency) const;

  std::uint64_t capacity_;
  bool model_latency_;
  storage::NvmeConfig nvme_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t used_bytes_ = 0;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace ftc::store
