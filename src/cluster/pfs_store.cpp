#include "cluster/pfs_store.hpp"

#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "common/string_util.hpp"

namespace ftc::cluster {

PfsStore::PfsStore(std::chrono::microseconds read_latency)
    : read_latency_(read_latency) {}

void PfsStore::put(const std::string& path, common::Buffer contents) {
  std::unique_lock lock(mutex_);
  files_[path] = std::move(contents);
}

void PfsStore::set_service_concurrency(std::uint32_t slots) {
  {
    std::lock_guard lock(service_mutex_);
    service_slots_ = slots;
  }
  service_cv_.notify_all();
}

std::uint32_t PfsStore::service_concurrency() const {
  std::lock_guard lock(service_mutex_);
  return service_slots_;
}

StatusOr<common::Buffer> PfsStore::read(const std::string& path) const {
  if (read_latency_.count() > 0) {
    std::unique_lock lock(service_mutex_);
    if (service_slots_ > 0) {
      // Finite service bandwidth: wait for a slot, then pay one service
      // time.  Concurrent excess demand waits here, which is exactly how
      // a failover storm's duplicate fetches turn into stretched latency
      // on a real parallel filesystem.  This is not a FIFO queue: the
      // condition variable wakes waiters in no set order, and a reader
      // arriving now can take a freed slot before a woken one.
      service_cv_.wait(lock, [this] {
        return service_slots_ == 0 || service_in_use_ < service_slots_;
      });
      ++service_in_use_;
      lock.unlock();
      std::this_thread::sleep_for(read_latency_);
      lock.lock();
      if (service_in_use_ > 0) --service_in_use_;
      lock.unlock();
      service_cv_.notify_one();
    } else {
      lock.unlock();
      std::this_thread::sleep_for(read_latency_);
    }
  }
  std::shared_lock lock(mutex_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::not_found("PFS has no file " + path);
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard count_lock(per_path_mutex_);
    ++per_path_reads_[path];
  }
  return it->second;
}

std::uint64_t PfsStore::read_count(const std::string& path) const {
  std::lock_guard lock(per_path_mutex_);
  const auto it = per_path_reads_.find(path);
  return it == per_path_reads_.end() ? 0 : it->second;
}

bool PfsStore::contains(const std::string& path) const {
  std::shared_lock lock(mutex_);
  return files_.contains(path);
}

std::size_t PfsStore::file_count() const {
  std::shared_lock lock(mutex_);
  return files_.size();
}

void PfsStore::populate_synthetic(const std::string& prefix,
                                  std::uint32_t count, std::uint32_t bytes) {
  for (std::uint32_t i = 0; i < count; ++i) {
    Rng rng(0xDA7A0000ULL + i);
    std::string contents;
    contents.reserve(bytes);
    for (std::uint32_t b = 0; b < bytes; ++b) {
      contents.push_back(static_cast<char>('a' + rng.below(26)));
    }
    put(prefix + "/file_" + zero_pad(i, 7) + ".tfrecord",
        std::move(contents));
  }
}

}  // namespace ftc::cluster
