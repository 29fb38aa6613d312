#include "store/nvme_device.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace ftc::store {

NvmeDevice::NvmeDevice(std::uint64_t capacity_bytes, bool model_latency,
                       storage::NvmeConfig nvme)
    : capacity_(capacity_bytes), model_latency_(model_latency), nvme_(nvme) {}

void NvmeDevice::pay(SimTime latency) const {
  if (!model_latency_ || latency <= 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(latency));
}

Status NvmeDevice::write(const std::string& path, Entry entry) {
  if (entry.bytes > capacity_) {
    return Status::capacity("file larger than NVMe volume: " + path);
  }
  // Pay the service time before taking the index lock: a modelled flash
  // write must not serialize concurrent index lookups.
  pay(storage::nvme_write_latency(nvme_, entry.bytes));
  entry.version = writes_.fetch_add(1, std::memory_order_relaxed) + 1;
  bytes_written_.fetch_add(entry.bytes, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(path);
  if (it != entries_.end()) {
    used_bytes_ -= it->second.bytes;
  }
  used_bytes_ += entry.bytes;
  entries_[path] = std::move(entry);
  return Status::ok();
}

std::optional<NvmeDevice::Entry> NvmeDevice::read(const std::string& path) {
  std::optional<Entry> found;
  {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(path);
    if (it == entries_.end()) return std::nullopt;
    found = it->second;  // Buffer copy = refcount bump
  }
  pay(storage::nvme_read_latency(nvme_, found->bytes));
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(found->bytes, std::memory_order_relaxed);
  return found;
}

bool NvmeDevice::contains(const std::string& path) const {
  std::lock_guard lock(mutex_);
  return entries_.contains(path);
}

std::optional<std::uint64_t> NvmeDevice::size_of(
    const std::string& path) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  return it->second.bytes;
}

std::optional<std::uint64_t> NvmeDevice::generation_of(
    const std::string& path) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  return it->second.generation;
}

bool NvmeDevice::erase(const std::string& path) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(path);
  if (it == entries_.end()) return false;
  used_bytes_ -= it->second.bytes;
  entries_.erase(it);
  return true;
}

bool NvmeDevice::erase_version(const std::string& path,
                               std::uint64_t version) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(path);
  if (it == entries_.end() || it->second.version != version) return false;
  used_bytes_ -= it->second.bytes;
  entries_.erase(it);
  return true;
}

void NvmeDevice::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  used_bytes_ = 0;
}

std::uint64_t NvmeDevice::used_bytes() const {
  std::lock_guard lock(mutex_);
  return used_bytes_;
}

std::size_t NvmeDevice::file_count() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

Manifest NvmeDevice::manifest() const {
  std::lock_guard lock(mutex_);
  Manifest manifest;
  manifest.entries.reserve(entries_.size());
  for (const auto& [path, entry] : entries_) {
    manifest.entries.push_back(
        ManifestEntry{path, "nvme", entry.bytes, entry.generation});
  }
  return manifest;
}

}  // namespace ftc::store
