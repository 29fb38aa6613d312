// hvac_server.hpp - The per-node HVAC cache daemon (Sec II-B).
//
// One instance runs on every compute node.  On a read RPC it checks the
// node-local NVMe cache; a hit is served directly, a miss is fetched from
// the PFS, served, and then inserted into the cache by the same endpoint
// worker right after the reply is delivered (rpc::Transport::after_reply)
// — the original HVAC flow, where the read never waits for the recache,
// without a thread hand-off per fill.  The
// elastic-recaching design needs no server-side changes: a post-failure
// new owner simply sees a miss for the lost file and the normal
// fetch/serve/recache path restores it (one PFS access per lost file).
//
// Data path (zero-copy): payloads are ftc::common::Buffer — a cache hit
// hands out a reference to the stored bytes (no memcpy, CRC memoized per
// payload), and a miss shares one buffer between the RPC response and the
// deferred recache.  The cache itself is the lock-striped TieredCacheStore
// (RAM-only unless `store.nvme_bytes` adds a cold NVMe tier), so
// concurrent reads of different files never serialize; server counters
// are lock-free atomics.  There is no server-wide mutex.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cluster/fault_detector.hpp"  // NodeId
#include "cluster/pfs_guard.hpp"
#include "cluster/pfs_store.hpp"
#include "common/stats_macros.hpp"
#include "obs/flight_recorder.hpp"
#include "placement/replication_policy.hpp"
#include "rpc/message.hpp"
#include "store/store_config.hpp"
#include "store/tiered_store.hpp"

namespace ftc::membership {
class MembershipAgent;
}  // namespace ftc::membership

namespace ftc::cluster {

struct HvacServerConfig {
  /// Byte budget of the cache's hot (RAM) tier — the whole cache unless
  /// `store.nvme_bytes` adds a cold tier.
  std::uint64_t cache_capacity_bytes = 1ULL << 30;
  /// Everything else about the cache: eviction policy, lock stripes, and
  /// the optional cold NVMe tier (`store.nvme_bytes > 0`) with
  /// demotion/promotion, watermark reclaim, and a generation-stamped
  /// manifest enabling warm restarts.
  ftc::store::StoreConfig store;
  /// When false, misses are cached inline before the response returns
  /// (deterministic mode for tests); when true, the endpoint worker that
  /// served the miss caches it right after delivering the reply, before
  /// it takes its next request (write-behind, as in the original system's
  /// data mover, but without a mover thread).  A handle() called directly,
  /// not through the transport, caches before it returns in both modes.
  bool async_data_mover = true;

  // --- Failover-storm hardening (every knob defaults to the legacy
  // behaviour: no admission control, serial endpoint, no singleflight) ---

  /// Transport worker threads for this node's endpoint.  1 = the seed's
  /// serial endpoint; more lets concurrent requests actually contend,
  /// which both the storm experiments and singleflight coalescing need.
  std::size_t endpoint_workers = 1;
  /// Bound the endpoint's ingress queue (class-aware shedding in the
  /// transport: membership never shed, reads shed at the limit, recache
  /// writes at twice it).  Off = unbounded legacy queue.
  bool admission_control = false;
  std::size_t admission_queue_limit = 16;
  /// Base of the kBusy retry-after hint, scaled by queue overflow.
  std::uint32_t admission_retry_after_ms = 1;
  /// Coalesce concurrent first-touch misses for one path into a single
  /// PFS fetch, cap concurrent fetches, and breaker-protect the PFS.
  bool pfs_singleflight = false;
  PfsGuardOptions pfs_guard;

  // --- Skew-tolerant placement (defaults to the legacy silent wire) ----

  /// Piggyback a smoothed queue-depth estimate on every response
  /// (transport-level EWMA of ingress queue + in-flight handlers).  The
  /// server-side half of bounded-load lookup and hot-file load
  /// spreading: clients only ever spill or spread on hints, so with this
  /// off those knobs are inert.  Off = load_hint stays 0, bit-for-bit
  /// legacy responses.
  bool report_load = false;
  /// EWMA smoothing for the reported load.  Valid: in (0, 1].
  double load_report_alpha = 0.2;

  // --- Partition tolerance (defaults to the legacy open door) ---------

  /// Ring-epoch write fencing.  With `enabled`, a mutating RPC (kPut /
  /// kEvict) whose sender ring epoch lags this node's membership epoch is
  /// refused kFencedEpoch instead of being applied — a client on the
  /// minority side of a healed partition cannot smear placement decisions
  /// derived from a dead ring onto the majority's caches.  The refusal
  /// response is stamped like any stale-view answer, so the fenced client
  /// fast-forwards and retries against the current ring in one round
  /// trip.  Inert without an attached membership agent (legacy senders
  /// are kEpochUnaware and never fence).  Off = bit-for-bit legacy.
  struct FencingConfig {
    bool enabled = false;
  } fencing;

  /// Rejects contradictory knob combinations (used by HvacServer's
  /// throwing constructor; callers may also pre-validate).
  [[nodiscard]] Status validate() const;
};

/// HvacServer's counters, the one definition of each: X(field, kStats
/// key, metric) (common/stats_macros.hpp).  Expands to HvacServer::Stats,
/// its atomic twin, stats_snapshot(), the kStats reply and the server's
/// block of Cluster::collect_metrics.
#define FTC_HVAC_SERVER_STATS(X)                                             \
  X(reads, reads, "ftc_server_reads_total")                                  \
  X(cache_hits, hits, "ftc_server_cache_hits_total")                         \
  X(cache_misses, misses, "ftc_server_cache_misses_total")                   \
  X(pfs_fetches, pfs_fetches, "ftc_server_pfs_fetches_total")                \
  X(recache_enqueued, recache_enqueued, "ftc_server_recache_enqueued_total") \
  X(recache_completed, recache_completed,                                    \
    "ftc_server_recache_completed_total")                                    \
  /* kPut backups accepted; of those, generation-stamped warm standbys   */  \
  /* (0 with every legacy sender); stamped kPuts refused kCancelled      */  \
  /* because a fresher generation was already stored; payload bytes of   */  \
  /* accepted warm standbys.                                             */  \
  X(replicas_stored, replicas_stored, "ftc_server_replicas_stored_total")    \
  X(warm_replicas_stored, warm_replicas_stored,                              \
    "ftc_server_warm_replicas_stored_total")                                 \
  X(stale_replica_puts, stale_replica_puts,                                  \
    "ftc_server_stale_replica_puts_total")                                   \
  X(warm_replica_bytes, warm_replica_bytes,                                  \
    "ftc_server_warm_replica_bytes_total")                                   \
  /* Payload bytes memcpy'd on the serve path.  Stays 0 on the refcounted */ \
  /* data path (hits share the cache entry's bytes; a miss shares one     */ \
  /* buffer between response and recache); nonzero means a regression.   */ \
  X(payload_bytes_copied, payload_bytes_copied,                              \
    "ftc_server_payload_bytes_copied_total")                                 \
  /* Requests whose deadline had passed on arrival: shed, never run. */      \
  X(expired_on_arrival, expired_on_arrival,                                  \
    "ftc_server_expired_on_arrival_total")                                   \
  /* kPeerGet requests received (prefetch pulls + p2p rescues; cache-only */ \
  /* by contract, never a PFS fetch), those served from the cache, and    */ \
  /* the payload bytes shipped node-to-node.                              */ \
  X(peer_gets, peer_gets, "ftc_server_peer_gets_total")                      \
  X(peer_get_hits, peer_get_hits, "ftc_server_peer_get_hits_total")          \
  X(peer_get_bytes, peer_get_bytes, "ftc_server_peer_get_bytes_total")       \
  /* Mutating RPCs refused kFencedEpoch because the sender's ring epoch   */ \
  /* lagged ours (fencing.enabled only), and stale-epoch ones *accepted*  */ \
  /* because fencing is off (the exposure the fence closes).              */ \
  X(fenced_writes, fenced_writes, "ftc_server_fenced_writes_total")          \
  X(stale_epoch_puts_accepted, stale_epoch_puts_accepted,                    \
    "ftc_server_stale_epoch_puts_total")

class HvacServer {
 public:
  /// Throws std::invalid_argument when `config.validate()` rejects —
  /// misconfigured overload control must fail loudly at construction,
  /// not silently misprotect under the first storm.
  /// `device` is the node's NVMe volume for the cold tier: pass the
  /// cluster-owned instance so cold-tier bytes survive a server restart
  /// (warm rejoin), or nullptr for a private volume.  Ignored without a
  /// cold tier (`config.store.nvme_bytes` 0).
  HvacServer(NodeId id, PfsStore& pfs, const HvacServerConfig& config,
             std::shared_ptr<ftc::store::NvmeDevice> device = nullptr);
  ~HvacServer();

  HvacServer(const HvacServer&) = delete;
  HvacServer& operator=(const HvacServer&) = delete;

  /// RPC dispatch; register with Transport as the node's handler.
  /// Thread-safe: may be called from many transport workers concurrently.
  rpc::RpcResponse handle(const rpc::RpcRequest& request);

  /// Attaches this node's membership agent (not owned; must outlive the
  /// server).  Once attached, handle() dispatches the SWIM verbs to it
  /// and every data response is epoch-stamped and carries piggybacked
  /// gossip — including the kStaleView fast-forward for lagging clients.
  /// Never attached in legacy mode, leaving behaviour bit-identical.
  void attach_membership(membership::MembershipAgent* agent) {
    membership_ = agent;
  }

  /// Attaches this node's flight recorder (not owned; must outlive the
  /// server).  Sampled requests then get a server-side span around
  /// dispatch plus shed events; the guard (if any) records the PFS
  /// singleflight legs.  Never attached = zero added work per request
  /// beyond one null check.
  void attach_observability(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
    if (pfs_guard_) pfs_guard_->set_observability(recorder, id_);
  }

  [[nodiscard]] NodeId id() const { return id_; }

  struct Stats {
    FTC_HVAC_SERVER_STATS(FTC_STATS_FIELD)
    // Read from the cache and the PFS guard, which count them; not in the
    // list because the server keeps no counter of its own for them.
    std::uint64_t evictions = 0;   ///< cache evictions to date
    std::uint64_t used_bytes = 0;  ///< current cache occupancy
    /// Miss-path calls that shared another caller's in-flight PFS fetch
    /// (singleflight followers; 0 with the guard off).
    std::uint64_t pfs_coalesced = 0;
    /// Miss-path calls fast-rejected kBusy by the open PFS breaker.
    std::uint64_t pfs_breaker_open = 0;
  };
  /// Value snapshot of the lock-free counters plus cache occupancy.  As
  /// with HvacClient, there is deliberately no reference accessor —
  /// counters cannot be mutated or observed torn from outside.
  [[nodiscard]] Stats stats_snapshot() const;

  /// Blocks until every write-behind recache started so far has landed
  /// (`recache_completed` counts it).  Must not be called from an endpoint
  /// worker: the recaches it waits for may be queued behind that very
  /// worker's reply.
  void flush_data_mover();

  /// Drops every cached entry (counters keep their history).  Models a
  /// node whose NVMe state was lost while it was out of service — the
  /// reinstatement experiments use it so a returning node must recache
  /// on first touch.
  void clear_cache();

  /// Cached-state inspection (telemetry / tests).
  [[nodiscard]] bool has_cached(const std::string& path) const;
  [[nodiscard]] std::size_t cached_file_count() const;
  [[nodiscard]] std::uint64_t cached_bytes() const;
  /// Whole-cache budget (RAM + NVMe).
  [[nodiscard]] std::uint64_t cache_capacity_bytes() const;

  /// Per-tier store telemetry (the nvme row reads 0 without a cold tier).
  [[nodiscard]] ftc::store::StoreStats store_stats() const {
    return cache_->stats_snapshot();
  }

  /// Highest replica generation this node's freshness ledger has accepted
  /// for `path` (0 = never stamped).  The cluster harness aggregates this
  /// across alive nodes as the generation authority for warm restarts.
  [[nodiscard]] std::uint64_t replica_generation_of(
      const std::string& path) const;

  /// Warm rejoin: rebuilds the cold tier from the surviving device's
  /// manifest, dropping entries whose generation the authority says is
  /// stale, and seeds the freshness ledger from what survived.  Returns
  /// the number of entries restored; always 0 without a cold tier.
  std::size_t warm_restore(
      const ftc::store::TieredCacheStore::GenerationAuthority& authority = {});

  /// Clean-shutdown flush: waits for write-behind recaches, then demotes
  /// every hot entry to the NVMe tier so the manifest covers the whole
  /// cache before a planned restart.  No-op without a cold tier.
  void flush_cache_to_cold();

  /// The server's copy of its config (cluster wiring reads the endpoint/
  /// admission knobs from here when registering the node).
  [[nodiscard]] const HvacServerConfig& config() const { return config_; }

  /// Storm-protection telemetry; nullptr with pfs_singleflight off.
  [[nodiscard]] const PfsFetchGuard* pfs_guard() const {
    return pfs_guard_.get();
  }

 private:
  /// The membership-agnostic op switch handle() wraps.  dispatch() is a
  /// thin tracing shim around dispatch_impl (a kServerHandle span for
  /// sampled requests, a tail call otherwise).
  rpc::RpcResponse dispatch(const rpc::RpcRequest& request);
  rpc::RpcResponse dispatch_impl(const rpc::RpcRequest& request);
  rpc::RpcResponse handle_read(const rpc::RpcRequest& request);
  void recache(const std::string& path, const common::Buffer& contents);

  /// Lock-free counters (snapshotted by stats()).
  struct AtomicStats {
    FTC_HVAC_SERVER_STATS(FTC_STATS_ATOMIC)
  };

  NodeId id_;
  PfsStore& pfs_;
  HvacServerConfig config_;
  membership::MembershipAgent* membership_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  /// The node's cache (internally synchronized).
  std::unique_ptr<ftc::store::TieredCacheStore> cache_;
  AtomicStats stats_;
  /// The recache enqueue's write-class decision, expressed through the
  /// same ReplicationPolicy vocabulary the client's replica pushes use
  /// (the async_data_mover knob feeds it at construction).
  placement::LocalRecachePolicy recache_policy_;
  /// Replica-freshness ledger: highest stamped generation accepted per
  /// path.  Touched only for generation-stamped kPuts (warm standbys);
  /// the legacy unstamped path never takes this lock.
  mutable std::mutex generation_mu_;
  std::unordered_map<std::string, std::uint64_t> replica_generations_;
  /// Storm protection for the miss path; null when pfs_singleflight off
  /// (the miss path is then bit-identical to the seed's).
  std::unique_ptr<PfsFetchGuard> pfs_guard_;
  /// Write-behind recaches handed to after_reply and not yet landed.
  /// flush_data_mover waits on `flush_cv_` for it to reach zero; the last
  /// finisher notifies under `flush_mu_`, so the wake-up cannot be lost.
  std::atomic<std::uint64_t> pending_recaches_{0};
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
};

}  // namespace ftc::cluster
