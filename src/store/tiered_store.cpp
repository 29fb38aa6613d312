#include "store/tiered_store.hpp"

#include <stdexcept>
#include <utility>

#include "hash/fnv.hpp"

namespace ftc::store {

TieredCacheStore::TieredCacheStore(std::uint64_t ram_bytes,
                                   const StoreConfig& config,
                                   std::shared_ptr<NvmeDevice> device)
    : ram_bytes_(ram_bytes), config_(config) {
  if (ram_bytes_ == 0) {
    throw std::invalid_argument("TieredCacheStore: RAM budget must be > 0");
  }
  if (const auto status = config_.validate(); !status.is_ok()) {
    throw std::invalid_argument("TieredCacheStore: " + status.message());
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = make_eviction_policy(config_.policy);
    shards_.push_back(std::move(shard));
  }
  if (!config_.has_cold_tier()) return;
  device_ = device ? std::move(device)
                   : std::make_shared<NvmeDevice>(config_.nvme_bytes,
                                                  config_.model_nvme_latency,
                                                  config_.nvme);
  cold_policy_ = make_eviction_policy(config_.policy);
  if (config_.background_reclaim) {
    reclaim_thread_ = std::thread([this] { reclaim_loop(); });
  }
}

TieredCacheStore::~TieredCacheStore() {
  if (reclaim_thread_.joinable()) {
    {
      std::lock_guard lock(reclaim_mutex_);
      shutdown_ = true;
    }
    reclaim_cv_.notify_all();
    reclaim_thread_.join();
  }
}

std::size_t TieredCacheStore::shard_for(const std::string& path) const {
  return hash::fnv1a64(path) % shards_.size();
}

// --- put path ----------------------------------------------------------

Status TieredCacheStore::put(const std::string& path, common::Buffer contents,
                             std::uint64_t logical_size,
                             std::uint64_t generation) {
  if (logical_size > ram_bytes_ && logical_size > config_.nvme_bytes) {
    return Status::capacity("file larger than the cache: " + path);
  }
  if (put_hot(path, contents, logical_size, generation)) {
    if (device_) {
      // The hot copy is now authoritative; a cold copy left from an
      // earlier demotion would serve stale bytes after the hot one goes.
      erase_cold(path);
      if (ram_used_.load(std::memory_order_relaxed) > ram_high_bytes()) {
        kick_reclaim();
      }
    }
    return Status::ok();
  }
  if (!device_) return Status::capacity("cache full: " + path);
  // RAM hard cap (or an oversized file): route the payload straight to
  // the cold tier instead of waiting on reclaim — writes never block.
  stats_.overflow_writes.fetch_add(1, std::memory_order_relaxed);
  take_hot(path);  // an overflow overwrite must not leave the old version
  const Status status =
      put_cold(path, std::move(contents), logical_size, generation);
  if (status.is_ok() && device_->used_bytes() > nvme_high_bytes()) {
    kick_reclaim();
  }
  return status;
}

bool TieredCacheStore::put_hot(const std::string& path,
                               const common::Buffer& contents,
                               std::uint64_t bytes, std::uint64_t generation) {
  if (bytes > ram_bytes_) return false;
  Shard& shard = *shards_[shard_for(path)];
  std::unique_lock lock(shard.mutex);
  ++shard.writes;
  // Replace-in-place: release the old accounting first so the
  // reservation below is exactly the net growth.
  drop_hot_locked(shard, path);
  // Reserve first (so concurrent puts cannot both pass an unreserved
  // check), then make the reservation fit.
  std::uint64_t used =
      ram_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (used > ram_bytes_ && device_) {
    ram_used_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;  // hard cap: caller overflows to the cold tier
  }
  while (used > ram_bytes_) {
    const std::uint64_t freed = evict_hot_locked(shard);
    if (freed == 0) break;  // this shard is empty; steal from peers
    used = ram_used_.fetch_sub(freed, std::memory_order_relaxed) - freed;
  }
  if (used > ram_bytes_) {
    // Other shards hold the bytes.  Never hold two shard locks at once:
    // release ours, evict round-robin across the shards, re-acquire.
    lock.unlock();
    const bool fits = evict_across_shards();
    lock.lock();
    if (!fits) {
      ram_used_.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    // The path may have been re-inserted while unlocked; drop it again so
    // `ram_used == sum of entry sizes` stays exact.
    drop_hot_locked(shard, path);
  }
  shard.entries[path] = HotEntry{contents, bytes, generation};
  shard.policy->on_insert(path, bytes);
  hot_inserts_.fetch_add(1);
  return true;
}

bool TieredCacheStore::promote(const std::string& path,
                               const NvmeDevice::Entry& entry,
                               std::uint64_t writes_seen) {
  if (entry.bytes > ram_bytes_) return false;
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  if (shard.writes != writes_seen || shard.entries.contains(path)) {
    return false;  // a newer version landed while the cold read slept
  }
  const std::uint64_t used =
      ram_used_.fetch_add(entry.bytes, std::memory_order_relaxed) +
      entry.bytes;
  if (used > ram_bytes_) {
    ram_used_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    return false;
  }
  shard.entries[path] = HotEntry{entry.contents, entry.bytes, entry.generation};
  shard.policy->on_insert(path, entry.bytes);
  return true;
}

bool TieredCacheStore::drop_hot_locked(Shard& shard, const std::string& path) {
  const auto it = shard.entries.find(path);
  if (it == shard.entries.end()) return false;
  ram_used_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  shard.policy->on_erase(path);
  shard.entries.erase(it);
  return true;
}

bool TieredCacheStore::take_hot(const std::string& path) {
  Shard& shard = *shards_[shard_for(path)];
  std::lock_guard lock(shard.mutex);
  ++shard.writes;
  return drop_hot_locked(shard, path);
}

std::uint64_t TieredCacheStore::evict_hot_locked(Shard& shard) {
  while (const auto victim = shard.policy->pop_victim()) {
    const auto it = shard.entries.find(*victim);
    if (it == shard.entries.end()) continue;  // advisory drift; re-probe
    const std::uint64_t freed = it->second.bytes;
    shard.entries.erase(it);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    return freed;
  }
  return 0;
}

bool TieredCacheStore::evict_across_shards() {
  const std::size_t n = shards_.size();
  // Sweep from a SNAPSHOT of the shared hand with a local cursor.
  // Advancing the shared hand once per probe would let concurrent
  // stealers interleaving on the counter each see only a subset of
  // shards (with an even count, two threads can alternate onto the same
  // parity class) — n probes landing exclusively on empty shards meant a
  // spurious kCapacity while evictable bytes sat elsewhere.  A local
  // cursor guarantees every caller visits all n shards; the shared hand
  // only advances past shards that actually yielded bytes, so successive
  // pressure events rotate the first victim instead of re-punishing the
  // same shard.  The sweep includes the inserting shard: it was drained
  // before its lock was released, but concurrent puts may refill it.
  //
  // The caller's reservation is part of ram_used_, so seeing the budget
  // fit once is success, even if other puts reserve again right after.
  // A pass that evicts nothing fails only if no put inserted during it:
  // otherwise the new entries may sit behind the cursor, so sweep again.
  for (;;) {
    const std::uint64_t inserts = hot_inserts_.load();
    bool progress = false;
    const std::size_t start = evict_hand_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      if (ram_used_.load(std::memory_order_relaxed) <= ram_bytes_) {
        return true;
      }
      const std::size_t victim = (start + i) % n;
      Shard& shard = *shards_[victim];
      std::lock_guard guard(shard.mutex);
      const std::uint64_t freed = evict_hot_locked(shard);
      if (freed > 0) {
        ram_used_.fetch_sub(freed, std::memory_order_relaxed);
        evict_hand_.store((victim + 1) % n, std::memory_order_relaxed);
        progress = true;
      }
    }
    if (!progress && hot_inserts_.load() == inserts) {
      return ram_used_.load(std::memory_order_relaxed) <= ram_bytes_;
    }
  }
}

Status TieredCacheStore::put_cold(const std::string& path,
                                  common::Buffer contents, std::uint64_t bytes,
                                  std::uint64_t generation) {
  if (bytes > config_.nvme_bytes) {
    return Status::capacity("file larger than NVMe budget: " + path);
  }
  const Status status = device_->write(
      path, NvmeDevice::Entry{std::move(contents), bytes, generation});
  if (!status.is_ok()) return status;
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->on_insert(path, bytes);
  }
  // Enforce the NVMe hard cap inline.  The victim may be the entry just
  // written (S3-FIFO treats an unproven newcomer as the most expendable
  // key) — that is admission control, not an error: the put succeeded,
  // the cache chose not to retain it.
  while (device_->used_bytes() > config_.nvme_bytes) {
    std::optional<std::string> victim;
    {
      std::lock_guard lock(cold_mutex_);
      victim = cold_policy_->pop_victim();
    }
    if (!victim) break;
    if (device_->erase(*victim)) {
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::ok();
}

bool TieredCacheStore::erase_cold(const std::string& path) {
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->on_erase(path);
  }
  return device_->erase(path);
}

// --- read path ---------------------------------------------------------

StatusOr<common::Buffer> TieredCacheStore::get(const std::string& path) {
  std::uint64_t writes_seen = 0;
  {
    Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(path);
    if (it != shard.entries.end()) {
      shard.policy->on_hit(path);
      ++shard.hot_hits;
      return it->second.contents;  // refcount bump, zero-copy
    }
    writes_seen = shard.writes;
  }
  auto cold = device_ ? device_->read(path)  // pays modelled NVMe latency
                      : std::nullopt;
  if (!cold) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    return Status::not_found();  // callers test is_ok() only; no string
  }
  stats_.cold_hits.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->on_hit(path);
  }
  // Promote: a cold hit is evidence of reuse, so move the entry back to
  // RAM when it fits under the hard cap.  No room, or a write raced the
  // read → serve from cold and leave placement to the next reclaim pass.
  // The cold copy is dropped only if it is still the version read, so a
  // newer overflow write is never deleted.
  if (promote(path, *cold, writes_seen)) {
    stats_.promotions.fetch_add(1, std::memory_order_relaxed);
    if (device_->erase_version(path, cold->version)) {
      std::lock_guard lock(cold_mutex_);
      cold_policy_->on_erase(path);
    }
    if (ram_used_.load(std::memory_order_relaxed) > ram_high_bytes()) {
      kick_reclaim();
    }
  }
  return std::move(cold->contents);
}

// --- metadata ----------------------------------------------------------

bool TieredCacheStore::contains(const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    if (shard.entries.contains(path)) return true;
  }
  return device_ && device_->contains(path);
}

std::optional<std::uint64_t> TieredCacheStore::size_of(
    const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(path);
    if (it != shard.entries.end()) return it->second.bytes;
  }
  return device_ ? device_->size_of(path) : std::nullopt;
}

std::string TieredCacheStore::tier_of(const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    if (shard.entries.contains(path)) return "ram";
  }
  if (device_ && device_->contains(path)) return "nvme";
  return "";
}

std::uint64_t TieredCacheStore::generation_of(const std::string& path) const {
  {
    const Shard& shard = *shards_[shard_for(path)];
    std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(path);
    if (it != shard.entries.end()) return it->second.generation;
  }
  return device_ ? device_->generation_of(path).value_or(0) : 0;
}

bool TieredCacheStore::erase(const std::string& path) {
  const bool hot = take_hot(path);
  const bool cold = device_ && erase_cold(path);
  return hot || cold;
}

void TieredCacheStore::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    ++shard->writes;
    for (const auto& [path, entry] : shard->entries) {
      ram_used_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    }
    shard->entries.clear();
    shard->policy->reset();
  }
  if (!device_) return;
  {
    std::lock_guard lock(cold_mutex_);
    cold_policy_->reset();
  }
  device_->clear();
}

std::size_t TieredCacheStore::file_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    count += shard->entries.size();
  }
  return count + (device_ ? device_->file_count() : 0);
}

std::uint64_t TieredCacheStore::used_bytes() const {
  return ram_used_.load(std::memory_order_relaxed) +
         (device_ ? device_->used_bytes() : 0);
}

StoreStats TieredCacheStore::stats_snapshot() const {
  StoreStats s;
  s.ram_used_bytes = ram_used_.load(std::memory_order_relaxed);
  s.nvme_used_bytes = device_ ? device_->used_bytes() : 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    s.hot_hits += shard->hot_hits;
  }
  FTC_STORE_STATS(FTC_STATS_LOAD)
  return s;
}

// --- warm restart ------------------------------------------------------

std::size_t TieredCacheStore::restore_from_device(
    const GenerationAuthority& authority) {
  if (!device_) return 0;
  if (!config_.manifest.enabled) {
    // Cold rejoin: the knob says restarts treat the volume as scratch.
    device_->clear();
    return 0;
  }
  // Round-trip through the wire format: this is exactly the read a real
  // restart does from the device's index block, and it makes a truncated
  // or corrupt manifest fail loudly here instead of serving garbage.
  const auto parsed = Manifest::parse(device_->manifest().serialize());
  if (!parsed.is_ok()) {
    device_->clear();
    return 0;
  }
  std::size_t restored = 0;
  for (const auto& entry : parsed.value().entries) {
    const std::uint64_t floor = authority ? authority(entry.path) : 0;
    if (floor > 0 && entry.generation < floor) {
      // The cluster moved on while this node was down: the bytes on the
      // device predate the current replica generation.  Serving them
      // would resurrect overwritten data, so drop instead.
      device_->erase(entry.path);
      stats_.manifest_rejected_stale.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    {
      std::lock_guard lock(cold_mutex_);
      cold_policy_->on_insert(entry.path, entry.bytes);
    }
    stats_.manifest_restored.fetch_add(1, std::memory_order_relaxed);
    ++restored;
  }
  return restored;
}

void TieredCacheStore::flush_hot_to_cold() {
  if (!device_) return;
  for (auto& shard : shards_) {
    std::vector<std::pair<std::string, HotEntry>> drained;
    {
      std::lock_guard lock(shard->mutex);
      drained.reserve(shard->entries.size());
      for (auto& [path, entry] : shard->entries) {
        ram_used_.fetch_sub(entry.bytes, std::memory_order_relaxed);
        drained.emplace_back(path, std::move(entry));
      }
      shard->entries.clear();
      shard->policy->reset();
    }
    for (auto& [path, entry] : drained) {
      stats_.demotions.fetch_add(1, std::memory_order_relaxed);
      put_cold(path, std::move(entry.contents), entry.bytes, entry.generation);
    }
  }
}

// --- reclaim -----------------------------------------------------------

void TieredCacheStore::kick_reclaim() {
  if (!config_.background_reclaim) {
    reclaim_pass();  // deterministic inline mode (unit tests)
    return;
  }
  {
    std::lock_guard lock(reclaim_mutex_);
    reclaim_requested_ = true;
  }
  reclaim_cv_.notify_one();
}

void TieredCacheStore::reclaim_loop() {
  for (;;) {
    std::unique_lock lock(reclaim_mutex_);
    reclaim_cv_.wait(lock, [this] { return reclaim_requested_ || shutdown_; });
    if (shutdown_) return;
    reclaim_requested_ = false;
    reclaim_active_ = true;
    lock.unlock();
    reclaim_pass();
    lock.lock();
    reclaim_active_ = false;
    reclaim_idle_cv_.notify_all();
  }
}

void TieredCacheStore::wait_reclaimed() {
  if (!reclaim_thread_.joinable()) return;
  std::unique_lock lock(reclaim_mutex_);
  reclaim_idle_cv_.wait(
      lock, [this] { return !reclaim_requested_ && !reclaim_active_; });
}

void TieredCacheStore::reclaim_pass() {
  stats_.reclaim_runs.fetch_add(1, std::memory_order_relaxed);
  if (ram_used_.load(std::memory_order_relaxed) > ram_high_bytes()) {
    demote_until(ram_low_bytes());
  }
  // Demotion pushes bytes downhill, so check NVMe pressure after.
  if (device_->used_bytes() > nvme_high_bytes()) {
    evict_cold_until(nvme_low_bytes());
  }
}

void TieredCacheStore::demote_until(std::uint64_t ram_target) {
  std::size_t barren = 0;  // consecutive shards with no victim
  while (ram_used_.load(std::memory_order_relaxed) > ram_target &&
         barren < shards_.size()) {
    const std::size_t index =
        demote_hand_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    Shard& shard = *shards_[index];
    std::string victim_path;
    HotEntry victim;
    {
      std::lock_guard lock(shard.mutex);
      const auto popped = shard.policy->pop_victim();
      if (!popped) {
        ++barren;
        continue;
      }
      const auto it = shard.entries.find(*popped);
      if (it == shard.entries.end()) continue;  // advisory drift; re-probe
      victim_path = *popped;
      victim = std::move(it->second);
      ram_used_.fetch_sub(victim.bytes, std::memory_order_relaxed);
      shard.entries.erase(it);
    }
    barren = 0;
    stats_.demotions.fetch_add(1, std::memory_order_relaxed);
    // The NVMe write (and any modelled sleep) happens with no shard lock
    // held; a get racing this window misses both tiers and re-fetches —
    // ordinary cache behaviour, never a stale read.
    put_cold(victim_path, std::move(victim.contents), victim.bytes,
             victim.generation);
  }
}

void TieredCacheStore::evict_cold_until(std::uint64_t nvme_target) {
  while (device_->used_bytes() > nvme_target) {
    std::optional<std::string> victim;
    {
      std::lock_guard lock(cold_mutex_);
      victim = cold_policy_->pop_victim();
    }
    if (!victim) break;
    if (device_->erase(*victim)) {
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace ftc::store
