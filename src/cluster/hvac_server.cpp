#include "cluster/hvac_server.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "hash/crc32.hpp"
#include "membership/swim.hpp"
#include "rpc/transport.hpp"

namespace ftc::cluster {

namespace {
std::uint32_t payload_crc(const common::Buffer& payload) {
  // Memoized in the buffer's shared control block: computed once per
  // payload lifetime (first serve), free on every later hit.
  return payload.checksum(
      [](std::string_view bytes) { return hash::crc32(bytes); });
}
}  // namespace

Status HvacServerConfig::validate() const {
  if (endpoint_workers == 0) {
    return Status::invalid_argument("endpoint_workers must be >= 1");
  }
  if (admission_control && admission_queue_limit < 1) {
    return Status::invalid_argument(
        "admission_control needs admission_queue_limit >= 1");
  }
  if (pfs_singleflight && pfs_guard.max_concurrent_fetches == 0) {
    return Status::invalid_argument(
        "pfs_singleflight needs max_concurrent_fetches >= 1");
  }
  if (pfs_singleflight && pfs_guard.breaker_failure_threshold == 0) {
    return Status::invalid_argument(
        "pfs_singleflight needs breaker_failure_threshold >= 1");
  }
  if (report_load && (load_report_alpha <= 0.0 || load_report_alpha > 1.0)) {
    return Status::invalid_argument("load_report_alpha must be in (0, 1]");
  }
  if (cache_capacity_bytes == 0) {
    return Status::invalid_argument("cache_capacity_bytes must be > 0");
  }
  return store.validate();
}

HvacServer::HvacServer(NodeId id, PfsStore& pfs,
                       const HvacServerConfig& config,
                       std::shared_ptr<ftc::store::NvmeDevice> device)
    : id_(id), pfs_(pfs), config_(config),
      recache_policy_(config.async_data_mover) {
  const Status valid = config_.validate();
  if (!valid.is_ok()) {
    throw std::invalid_argument("HvacServerConfig: " + valid.message());
  }
  cache_ = std::make_unique<ftc::store::TieredCacheStore>(
      config_.cache_capacity_bytes, config_.store, std::move(device));
  if (config_.pfs_singleflight) {
    pfs_guard_ = std::make_unique<PfsFetchGuard>(config_.pfs_guard);
  }
}

// A deferred recache touches cache_ and stats_; the owner unregisters the
// endpoint (joining its workers, which run their deferred tasks first)
// before destroying the server, and this wait covers any other caller.
HvacServer::~HvacServer() { flush_data_mover(); }

rpc::RpcResponse HvacServer::handle(const rpc::RpcRequest& request) {
  // Deadline shed: work whose deadline passed while it sat in the ingress
  // queue is answered kCancelled without being executed — the client gave
  // up already, and doing it anyway is exactly the wasted work that turns
  // an overload into a metastable storm.  Membership verbs never carry
  // deadlines, so detection traffic is unaffected.
  if (rpc::deadline_expired(request.deadline_ns)) {
    stats_.expired_on_arrival.fetch_add(1, std::memory_order_relaxed);
    if (recorder_ != nullptr && request.trace.sampled) {
      recorder_->record_event(obs::RecordKind::kServerShed,
                              request.trace.child(), id_,
                              static_cast<std::uint32_t>(StatusCode::kCancelled),
                              0, "deadline");
    }
    rpc::RpcResponse response;
    response.code = StatusCode::kCancelled;
    return response;
  }
  if (membership_ != nullptr) {
    switch (request.op) {
      case rpc::Op::kSwimPing:
      case rpc::Op::kSwimPingReq:
      case rpc::Op::kSwimVerdict:
      case rpc::Op::kMembershipSync:
        return membership_->handle(request);
      default: {
        // Data path: fold the request's piggybacked gossip, serve, then
        // stamp the response with our epoch / gossip / stale-view delta.
        membership_->observe_request(request);
        // Write fence: a mutating op carrying a ring epoch older than our
        // view was planned against a placement that no longer exists —
        // typically by a client stranded on the minority side of a
        // partition.  Refuse it BEFORE dispatch; the stamped response
        // carries the kStaleView delta, so the sender fast-forwards and
        // re-plans against the live ring before retrying.  Reads are
        // never fenced (a stale reader only risks a miss, not damage).
        const bool mutating =
            request.op == rpc::Op::kPut || request.op == rpc::Op::kEvict;
        if (mutating && request.ring_epoch != rpc::kEpochUnaware &&
            request.ring_epoch < membership_->epoch()) {
          if (config_.fencing.enabled) {
            stats_.fenced_writes.fetch_add(1, std::memory_order_relaxed);
            if (recorder_ != nullptr) {
              recorder_->record_event(
                  obs::RecordKind::kPartitionFence, request.trace.child(),
                  id_, static_cast<std::uint32_t>(membership_->epoch()),
                  request.ring_epoch, request.path);
            }
            rpc::RpcResponse response;
            response.code = StatusCode::kFencedEpoch;
            membership_->stamp_response(request, response);
            return response;
          }
          // Fencing off: accept as before, but count the exposure so the
          // partition bench can prove the fence closes it.
          stats_.stale_epoch_puts_accepted.fetch_add(
              1, std::memory_order_relaxed);
        }
        rpc::RpcResponse response = dispatch(request);
        membership_->stamp_response(request, response);
        return response;
      }
    }
  }
  return dispatch(request);
}

rpc::RpcResponse HvacServer::dispatch(const rpc::RpcRequest& request) {
  if (recorder_ != nullptr && request.trace.sampled) {
    const obs::TraceContext ctx = request.trace.child();
    const std::int64_t start = obs::now_ns();
    rpc::RpcResponse response = dispatch_impl(request);
    recorder_->record_span(obs::RecordKind::kServerHandle, ctx, id_, start,
                           obs::now_ns(),
                           static_cast<std::uint32_t>(response.code),
                           response.payload.size(), request.path);
    return response;
  }
  return dispatch_impl(request);
}

rpc::RpcResponse HvacServer::dispatch_impl(const rpc::RpcRequest& request) {
  switch (request.op) {
    case rpc::Op::kReadFile:
      return handle_read(request);
    case rpc::Op::kPing: {
      rpc::RpcResponse response;
      response.code = StatusCode::kOk;
      return response;
    }
    case rpc::Op::kEvict: {
      rpc::RpcResponse response;
      response.code = cache_->erase(request.path) ? StatusCode::kOk
                                                 : StatusCode::kNotFound;
      return response;
    }
    case rpc::Op::kStats: {
      rpc::RpcResponse response;
      const Stats s = stats_snapshot();
      std::string text;
      FTC_HVAC_SERVER_STATS(FTC_STATS_KEYED_TEXT)
      // Values the server reads from its cache and guard (not in the list).
      text += "evictions=" + std::to_string(s.evictions) +
              " pfs_coalesced=" + std::to_string(s.pfs_coalesced) +
              " pfs_breaker_open=" + std::to_string(s.pfs_breaker_open) +
              " used_bytes=" + std::to_string(s.used_bytes) +
              " capacity_bytes=" + std::to_string(cache_->capacity_bytes()) +
              " files=" + std::to_string(cache_->file_count());
      response.payload = common::Buffer(std::move(text));
      return response;
    }
    case rpc::Op::kPut: {
      // Backup-replica placement (replication extension): store without
      // touching the PFS.  The stored buffer shares the request's bytes.
      rpc::RpcResponse response;
      const bool stamped = request.replica_generation != 0;
      if (stamped) {
        // Replica freshness: a generation-stamped put must never roll a
        // standby back to a dead ring's placement.  Remember the highest
        // accepted generation per path and refuse anything older with
        // kCancelled — the sender learns a fresher standby already sits
        // here.  Equal generations re-store (idempotent; a retried push
        // after a shed must be able to land).
        std::lock_guard<std::mutex> lock(generation_mu_);
        auto [it, inserted] = replica_generations_.try_emplace(
            request.path, request.replica_generation);
        if (!inserted) {
          if (request.replica_generation < it->second) {
            stats_.stale_replica_puts.fetch_add(1, std::memory_order_relaxed);
            response.code = StatusCode::kCancelled;
            return response;
          }
          it->second = request.replica_generation;
        }
      }
      // The store receives the generation stamp too: the tiered store
      // persists it into the cold-tier manifest, which is what lets a
      // warm-restarted node re-validate survivors instead of re-fetching.
      const Status put =
          cache_->put(request.path, request.payload, request.payload.size(),
                      stamped ? request.replica_generation : 0);
      response.code = put.code();
      if (put.is_ok()) {
        stats_.replicas_stored.fetch_add(1, std::memory_order_relaxed);
        if (stamped) {
          stats_.warm_replicas_stored.fetch_add(1, std::memory_order_relaxed);
          stats_.warm_replica_bytes.fetch_add(request.payload.size(),
                                              std::memory_order_relaxed);
        }
      }
      return response;
    }
    case rpc::Op::kPeerGet: {
      // Peer-to-peer transfer (prefetch extension): serve from NVMe or say
      // kNotFound — by contract this op NEVER touches the PFS, so a storm
      // of peers probing for a lost file costs the filesystem nothing.
      // The response carries our freshness-ledger stamp for the path so a
      // puller that re-places the bytes forwards the right generation.
      rpc::RpcResponse response;
      stats_.peer_gets.fetch_add(1, std::memory_order_relaxed);
      auto cached = cache_->get(request.path);
      if (!cached.is_ok()) {
        response.code = StatusCode::kNotFound;
        return response;
      }
      stats_.peer_get_hits.fetch_add(1, std::memory_order_relaxed);
      response.code = StatusCode::kOk;
      response.cache_hit = true;
      // Zero-copy: the response references the cache entry's bytes.
      response.payload = std::move(cached).value();
      response.checksum = payload_crc(response.payload);
      stats_.peer_get_bytes.fetch_add(response.payload.size(),
                                      std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(generation_mu_);
        auto it = replica_generations_.find(request.path);
        if (it != replica_generations_.end()) {
          response.replica_generation = it->second;
        }
      }
      return response;
    }
    case rpc::Op::kSwimPing:
    case rpc::Op::kSwimPingReq:
    case rpc::Op::kSwimVerdict:
    case rpc::Op::kMembershipSync:
      // Membership verbs on a node with no agent attached (legacy mode):
      // reject rather than fake an ack.
      break;
  }
  rpc::RpcResponse response;
  response.code = StatusCode::kInvalidArgument;
  return response;
}

rpc::RpcResponse HvacServer::handle_read(const rpc::RpcRequest& request) {
  rpc::RpcResponse response;
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  auto cached = cache_->get(request.path);
  if (cached.is_ok()) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    response.code = StatusCode::kOk;
    response.cache_hit = true;
    // Zero-copy hit: the response references the cache entry's bytes.
    response.payload = std::move(cached).value();
    response.checksum = payload_crc(response.payload);
    return response;
  }
  stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);

  if (pfs_guard_) {
    // Storm-protected miss: coalesce concurrent fetches for this path,
    // bound PFS concurrency, and honor the breaker.  The leader recaches
    // *synchronously* before its flight closes, so a request arriving
    // just after the flight hits the cache instead of starting a second
    // fetch — that double-check is what pins duplicate PFS fetches per
    // lost file at one even when arrivals straddle the flight boundary.
    PfsFetchGuard::Outcome outcome = pfs_guard_->fetch(
        request.path, [this, &request]() -> StatusOr<common::Buffer> {
          auto rechecked = cache_->get(request.path);
          if (rechecked.is_ok()) return std::move(rechecked).value();
          auto fetched = pfs_.read(request.path);
          if (!fetched.is_ok()) return fetched.status();
          stats_.pfs_fetches.fetch_add(1, std::memory_order_relaxed);
          common::Buffer contents = std::move(fetched).value();
          stats_.recache_enqueued.fetch_add(1, std::memory_order_relaxed);
          recache(request.path, contents);
          return contents;
        },
        request.trace);
    if (outcome.rejected_busy) {
      response.code = StatusCode::kBusy;
      response.retry_after_ms = outcome.retry_after_ms;
      return response;
    }
    if (!outcome.result.is_ok()) {
      response.code = outcome.result.status().code();
      return response;
    }
    response.code = StatusCode::kOk;
    response.cache_hit = false;
    response.payload = std::move(outcome.result).value();
    response.checksum = payload_crc(response.payload);
    return response;
  }

  // Miss: fetch from PFS (slow; no cache lock is held here).
  auto from_pfs = pfs_.read(request.path);
  if (!from_pfs.is_ok()) {
    response.code = from_pfs.status().code();
    return response;
  }
  stats_.pfs_fetches.fetch_add(1, std::memory_order_relaxed);
  common::Buffer contents = std::move(from_pfs).value();
  response.code = StatusCode::kOk;
  response.cache_hit = false;
  response.checksum = payload_crc(contents);

  stats_.recache_enqueued.fetch_add(1, std::memory_order_relaxed);
  // The local recache is the degenerate replication plan (no remote
  // targets); its write class carries the old async_data_mover decision.
  placement::PlanContext fill_ctx;
  fill_ctx.path = request.path;
  fill_ctx.primary = id_;
  if (recache_policy_.plan(fill_ctx).write_class ==
      placement::WriteClass::kAsyncWriteBehind) {
    // Write-behind on this endpoint worker, after the reply is out.  The
    // task shares the response's buffer — deferring is a refcount bump,
    // not a payload copy.
    pending_recaches_.fetch_add(1, std::memory_order_relaxed);
    rpc::Transport::after_reply([this, path = request.path, contents] {
      recache(path, contents);
      if (pending_recaches_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(flush_mu_);
        flush_cv_.notify_all();
      }
    });
  } else {
    recache(request.path, contents);
  }
  response.payload = std::move(contents);
  return response;
}

void HvacServer::recache(const std::string& path,
                         const common::Buffer& contents) {
  // A PFS fill carries the path's ledger generation if one exists (the
  // bytes just read are at least that fresh), 0 otherwise — so manifest
  // rows written by ordinary fills still survive warm-restart validation.
  const Status put =
      cache_->put(path, contents, contents.size(), replica_generation_of(path));
  if (put.is_ok()) {
    stats_.recache_completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    FTC_LOG(kWarn, "hvac_server")
        << "node " << id_ << " recache failed: " << put.to_string();
  }
}

void HvacServer::flush_data_mover() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [this] {
    return pending_recaches_.load(std::memory_order_acquire) == 0;
  });
}

void HvacServer::clear_cache() {
  // Drain in-flight recaches first so a write-behind cannot repopulate an
  // entry after the clear.
  flush_data_mover();
  cache_->clear();
  // The freshness ledger describes entries that no longer exist; keeping
  // it would make a rejoined node refuse the very standbys that should
  // repopulate its empty NVMe.
  std::lock_guard<std::mutex> lock(generation_mu_);
  replica_generations_.clear();
}

HvacServer::Stats HvacServer::stats_snapshot() const {
  // Bounded double-read: loading a dozen independently updated counters
  // one by one can yield a torn snapshot (hits + misses != reads).  Retry
  // while two consecutive assemblies disagree; under sustained churn the
  // last read wins, which is no worse than the old single pass.
  const auto load_all = [this] {
    Stats s;
    FTC_HVAC_SERVER_STATS(FTC_STATS_LOAD)
    s.evictions = cache_->eviction_count();
    s.used_bytes = cache_->used_bytes();
    if (pfs_guard_) {
      const PfsFetchGuard::Stats guard = pfs_guard_->stats_snapshot();
      s.pfs_coalesced = guard.coalesced;
      s.pfs_breaker_open = guard.breaker_rejections;
    }
    return s;
  };
  Stats snap = load_all();
  for (int round = 0; round < 3; ++round) {
    const Stats again = load_all();
    if (std::memcmp(&snap, &again, sizeof(Stats)) == 0) break;
    snap = again;
  }
  return snap;
}

bool HvacServer::has_cached(const std::string& path) const {
  return cache_->contains(path);
}

std::size_t HvacServer::cached_file_count() const {
  return cache_->file_count();
}

std::uint64_t HvacServer::cached_bytes() const { return cache_->used_bytes(); }

std::uint64_t HvacServer::cache_capacity_bytes() const {
  return cache_->capacity_bytes();
}

std::uint64_t HvacServer::replica_generation_of(const std::string& path) const {
  std::lock_guard<std::mutex> lock(generation_mu_);
  const auto it = replica_generations_.find(path);
  return it == replica_generations_.end() ? 0 : it->second;
}

std::size_t HvacServer::warm_restore(
    const ftc::store::TieredCacheStore::GenerationAuthority& authority) {
  const ftc::store::NvmeDevice* device = cache_->device();
  if (device == nullptr) return 0;
  const std::size_t restored = cache_->restore_from_device(authority);
  // Seed the freshness ledger from the surviving manifest: without this,
  // a stale replica push arriving right after the restart would be
  // accepted over the fresher bytes that just came back from the device.
  const ftc::store::Manifest manifest = device->manifest();
  std::lock_guard<std::mutex> lock(generation_mu_);
  for (const auto& entry : manifest.entries) {
    if (entry.generation == 0) continue;
    auto& known = replica_generations_[entry.path];
    if (entry.generation > known) known = entry.generation;
  }
  return restored;
}

void HvacServer::flush_cache_to_cold() {
  flush_data_mover();
  cache_->flush_hot_to_cold();
}

}  // namespace ftc::cluster
