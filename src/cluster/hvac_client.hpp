// hvac_client.hpp - The HVAC client library (intercept-side logic).
//
// In the original system this is the LD_PRELOAD shared library that
// intercepts open/read/close; here `read_file` is the moral equivalent of
// that intercepted path.  The client owns the three fault-tolerance
// behaviours the paper compares:
//
//   kNone (NoFT)             - no detection; a timeout aborts the read and
//                              therefore the training job (baseline HVAC).
//   kPfsRedirect (FT w/ PFS) - Sec IV-A: timeouts increment a per-node
//                              counter; the timed-out request (and, once
//                              the node is flagged, all of its keys'
//                              requests) are served from the PFS forever.
//   kHashRingRecache         - Sec IV-B: placement is a consistent-hash
//   (FT w/ NVMe)               ring; flagging a node removes it from the
//                              ring so its keys fall to the clockwise
//                              successor, which recaches them from the PFS
//                              once and serves NVMe thereafter.
//
// Beyond the paper's crash-stop model, the hash-ring mode handles *gray*
// failures (slow or flapping nodes, Sec III's transient fault classes):
//
//   - Probation/reinstatement: tripping TIMEOUT_LIMIT puts a node in
//     probation (out of the ring) instead of declaring it dead.  The
//     client probes it on an exponential backoff; a successful probe
//     re-adds it through the same elastic path a newly joined server
//     uses, so its keys migrate back and recache on first touch.  A node
//     that flaps repeatedly is failed for good (FaultDetector::Options).
//   - Hedged reads (opt-in, `hedge_reads`): if the owner has not answered
//     within an adaptive hedge delay (a high quantile of observed healthy
//     latency x a margin), the client races a second request against the
//     next distinct ring successor (or the PFS when no successor exists)
//     and returns the first success — bounding tail latency under a slow
//     node that never trips the timeout.
//
// Each client instance is used by one training process (thread) at a
// time, but different clients share nothing — they detect failures and
// update their rings autonomously, as in the paper (no inter-node
// coordination).  Every reply the client sees, sync or async, is settled
// by one function (settle) on the owning thread: async calls complete on
// transport pool threads and post their raw result to a refcounted
// mailbox, which the owning thread drains on its next call, so all client
// state stays single-threaded.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/fault_detector.hpp"
#include "cluster/pfs_store.hpp"
#include "cluster/popularity.hpp"
#include "cluster/retry_budget.hpp"
#include "common/buffer.hpp"
#include "common/latency_recorder.hpp"
#include "common/rng.hpp"
#include "common/stats_macros.hpp"
#include "common/types.hpp"
#include "membership/ring_view.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "placement/replication_policy.hpp"
#include "prefetch/epoch_prefetch_planner.hpp"
#include "prefetch/prefetch_config.hpp"
#include "ring/bounded_load.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "ring/static_modulo.hpp"
#include "rpc/transport.hpp"

namespace ftc::membership {
class MembershipAgent;
}  // namespace ftc::membership

namespace ftc::cluster {

enum class FtMode {
  kNone,
  kPfsRedirect,
  kHashRingRecache,
};

const char* ft_mode_name(FtMode mode);

struct HvacClientConfig {
  FtMode mode = FtMode::kHashRingRecache;
  /// Per-RPC deadline (the artifact's TIMEOUT_SECONDS, scaled down for an
  /// in-process transport).  Valid: > 0.
  std::chrono::milliseconds rpc_timeout{100};
  /// Timeouts needed to take a node out of service (the artifact's
  /// TIMEOUT_LIMIT).  Valid: >= 1.
  std::uint32_t timeout_limit = 3;
  /// Virtual nodes per physical node for the ring modes (paper: 100).
  /// Valid: >= 1.
  std::uint32_t vnodes_per_node = 100;
  /// All clients of a job must share this seed to build identical rings.
  /// Valid: any.
  std::uint64_t ring_seed = 0;
  /// Verify payload CRC against the server-computed checksum.
  bool verify_checksums = true;
  /// Replication extension (hash-ring mode only): cache every file on the
  /// first `replication.factor` distinct ring owners.  On a failure the
  /// clockwise successor already holds the lost files, so recovery needs
  /// NO PFS access at all — at factor x the NVMe footprint.  factor == 1
  /// is the paper's system (no replication).  With `replication.
  /// warm_standby` the backups are placed proactively on every
  /// authoritative fill (write-behind, generation-stamped) instead of
  /// only on miss fills — the warm-failover mode.  Replaces the old flat
  /// `replication_factor` knob (now `replication.factor`); see
  /// placement::ReplicationConfig for the full set and validity ranges.
  placement::ReplicationConfig replication;
  /// Shuffle-aware epoch-ahead prefetch (hash-ring mode only; everything
  /// default-off).  With `prefetch.enabled` the trainer hands the client
  /// its next sample set at each epoch boundary (prefetch_epoch) and an
  /// EpochPrefetchPlanner pulls the remote-owned files node-to-node over
  /// kPeerGet, at most `prefetch.depth` in flight, staging them locally so
  /// the epoch's reads are served without a network round trip.  With
  /// `prefetch.p2p` a read that would otherwise fall back to the PFS first
  /// walks the replica chain over kPeerGet (ring owner, then warm
  /// standbys) and the rescued bytes heal the authoritative owner through
  /// the same merged replica-push path.  See prefetch::PrefetchConfig.
  prefetch::PrefetchConfig prefetch;

  // --- gray-failure handling (hash-ring mode only) ---------------------
  /// When true, a flagged node enters probation and may be reinstated by
  /// a background probe; when false, flagging is terminal (the paper's
  /// crash-stop model).  A node reinstated three times is failed for good
  /// on its next flag (FaultDetector::Options' default max_flaps).
  bool reinstatement = true;
  /// Delay before the first reinstatement probe; doubles per failed
  /// probe up to `probe_backoff_cap`.  Valid: > 0, cap >= base.
  std::chrono::milliseconds probe_backoff{50};
  std::chrono::milliseconds probe_backoff_cap{2000};

  // --- hedged reads (hash-ring mode only; off by default so the paper's
  // --- single-request read path stays the baseline) --------------------
  bool hedge_reads = false;
  /// Hedge delay = clamp(latency quantile x multiplier, min_delay,
  /// rpc_timeout), falling back to rpc_timeout / 4 until 16 latencies are
  /// recorded (HvacClient::kMinLatencySamples).
  /// Valid: quantile in (0, 100], multiplier >= 1.0.
  double hedge_quantile = 95.0;
  double hedge_delay_multiplier = 2.0;
  std::chrono::microseconds hedge_min_delay{0};

  // --- failover-storm hardening (every knob defaults to the legacy
  // --- behaviour: no deadline on the wire, unlimited retries/hedges,
  // --- no busy handling beyond surfacing the error) --------------------
  /// Total budget for one read_file call, spanning every retry and hedge
  /// leg.  Carried on the wire as an absolute deadline so servers shed
  /// work the client has already given up on.  0 = off (legacy: each
  /// attempt gets a fresh rpc_timeout, reads can take attempts x timeout).
  /// Valid when set: > rpc_timeout, else the first attempt could never
  /// use its full per-RPC deadline.
  std::chrono::milliseconds total_deadline{0};
  /// Retry budget (gRPC/Finagle style): every success deposits this many
  /// tokens (capped at retry_budget_cap); every retry and every hedge leg
  /// spends one.  Under overload successes dry up, the bucket drains, and
  /// retries/hedging self-disable instead of amplifying the storm.
  /// 0 = off.  Valid when set: in (0, 1]; cap >= 1.
  double retry_budget_ratio = 0.0;
  double retry_budget_cap = 10.0;
  /// Backoff after a kBusy rejection: jittered exponential from 1 ms
  /// doubling per attempt up to `cap`, never below the server's
  /// retry-after hint, never past the read's deadline.  Valid: >= 1 ms.
  std::chrono::milliseconds busy_backoff_cap{16};

  // --- skew-tolerant placement (hash-ring mode only; every knob defaults
  // --- to the legacy single-owner lookup, bit-for-bit) -----------------
  /// Bounded-load lookup (consistent hashing with bounded loads): a read
  /// spills past its primary owner to the next distinct clockwise node
  /// when the primary's piggybacked load estimate exceeds
  /// `bounded_load_c` x the mean over observed nodes.  Requires servers
  /// with report_load on to have any effect (no hints -> no spills).
  bool bounded_load = false;
  /// Overload factor c.  Valid: > 1 (c <= 1 would mark half the fleet
  /// overloaded in steady state and thrash placement).  A lookup inspects
  /// at most two distinct spill candidates past the primary.
  double bounded_load_c = 1.25;

  /// Hot-file replica fanout: a space-saving top-k sketch tracks per-file
  /// heat; files crossing hot_promote_threshold are replicated to the
  /// first `hot_replica_fanout` ring owners (existing kPut recache path)
  /// and reads load-spread across the set by power-of-two-choices on the
  /// piggybacked load.  Demoted (replicas evicted) when heat decays to
  /// hot_demote_threshold, invalidated wholesale when the ring changes.
  /// The sketch tracks 64 files and halves heat every 4096 accesses
  /// (HotFilePromoter::Options' defaults).
  bool hot_fanout = false;
  /// Replica-set size including the primary.  Valid: >= 2 and <= cluster
  /// size at construction.
  std::uint32_t hot_replica_fanout = 2;
  /// Promote at heat >= this.  Valid: > 0.
  double hot_promote_threshold = 64.0;
  /// Demote at heat <= this.  Valid: >= 0 and < hot_promote_threshold —
  /// the gap is the hysteresis band that stops flapping.
  double hot_demote_threshold = 16.0;

  /// Checks every field against its documented range; `cluster_size` (0 =
  /// unknown) additionally bounds replication.factor.  The HvacClient
  /// constructor rejects configs this returns non-OK for.
  [[nodiscard]] Status validate(std::size_t cluster_size = 0) const;
};

/// HvacClient's counters, the one definition of each: X(field, metric
/// [, label key, label value]) (common/stats_macros.hpp).  Expands to
/// HvacClient::Stats, its atomic twin, stats_snapshot() and the client's
/// block of Cluster::collect_metrics.
#define FTC_HVAC_CLIENT_STATS(X)                                             \
  X(reads, "ftc_client_reads_total")                                         \
  /* server had it on NVMe / fetched it from PFS / client read the PFS */    \
  X(served_remote_cache, "ftc_client_served_total", "outcome", "remote_cache") \
  X(served_remote_fetch, "ftc_client_served_total", "outcome", "remote_fetch") \
  X(served_pfs_direct, "ftc_client_served_total", "outcome", "pfs_direct")   \
  X(timeouts, "ftc_client_timeouts_total")                                   \
  /* healthy/suspect -> out of service */                                    \
  X(nodes_flagged, "ftc_client_nodes_flagged_total")                         \
  X(ring_updates, "ftc_client_ring_updates_total")                           \
  X(checksum_failures, "ftc_client_checksum_failures_total")                 \
  /* backup kPut ops issued (warm puts included: the one total) */           \
  X(replicas_pushed, "ftc_client_replicas_pushed_total")                     \
  /* Gray-failure path: hedges raced / won / lost / sent to the PFS       */ \
  /* (no successor), reinstatement probes, probation -> healthy.         */ \
  X(hedges_launched, "ftc_client_hedges_total", "outcome", "launched")       \
  X(hedge_wins, "ftc_client_hedges_total", "outcome", "hedge_win")           \
  X(primary_wins_after_hedge, "ftc_client_hedges_total", "outcome",          \
    "primary_win")                                                           \
  X(hedges_to_pfs, "ftc_client_hedges_total", "outcome", "to_pfs")           \
  X(probes_sent, "ftc_client_probes_sent_total")                             \
  X(nodes_reinstated, "ftc_client_nodes_reinstated_total")                   \
  /* Membership path (zero while no agent is attached): detector verdicts */ \
  /* gossiped, kStaleView responses seen, ingests that advanced epoch.    */ \
  X(suspicions_reported, "ftc_client_suspicions_reported_total")             \
  X(stale_view_hints, "ftc_client_stale_view_hints_total")                   \
  X(epoch_fast_forwards, "ftc_client_epoch_fast_forwards_total")             \
  /* Failover-storm hardening (zero with the knobs off): kBusy answers,   */ \
  /* retry-budget spends refused, reads ended by total_deadline.          */ \
  X(busy_rejections, "ftc_client_busy_rejections_total")                     \
  X(retries_denied_by_budget, "ftc_client_retries_denied_total")             \
  X(deadline_give_ups, "ftc_client_deadline_give_ups_total")                 \
  /* Skew-tolerant placement (zero with the knobs off): responses with a  */ \
  /* load hint, bounded-load reads routed past the primary, p2c reads     */ \
  /* over a hot replica set, files entering a set, promotions dropped by  */ \
  /* heat decay and by a ring epoch.                                      */ \
  X(load_hints_observed, "ftc_ring_load_hints_total")                        \
  X(spilled_reads, "ftc_ring_spilled_reads_total")                           \
  X(load_spread_reads, "ftc_ring_load_spread_reads_total")                   \
  X(hot_promotions, "ftc_ring_hot_promotions_total")                         \
  X(hot_demotions, "ftc_ring_hot_demotions_total")                           \
  X(hot_invalidations, "ftc_ring_hot_invalidations_total")                   \
  /* Warm failover (zero with replication.warm_standby off): standby puts */ \
  /* acknowledged, of which generation repairs, pushes skipped at the     */ \
  /* depth cap, standby sets moved by a ring change (repair issued).      */ \
  X(warm_pushes, "ftc_client_warm_pushes_total")                             \
  X(warm_restores, "ftc_client_warm_restores_total")                         \
  X(warm_deferred, "ftc_client_warm_deferred_total")                         \
  X(warm_invalidations, "ftc_client_warm_invalidations_total")               \
  /* Epoch-ahead prefetch / p2p recache (zero with prefetch.* off): pulls */ \
  /* planned, kPeerGet pulls issued, pulls that staged a payload, pulls   */ \
  /* answered kNotFound, pulls dropped (stale epoch / admission shed),    */ \
  /* reads served from staging, PFS fallbacks averted via kPeerGet, bytes */ \
  /* received over kPeerGet.                                              */ \
  X(prefetch_planned, "ftc_prefetch_planned_total")                          \
  X(prefetch_pulls, "ftc_prefetch_pulls_total")                              \
  X(prefetch_hits, "ftc_prefetch_pulls_outcome_total", "outcome", "hit")     \
  X(prefetch_misses, "ftc_prefetch_pulls_outcome_total", "outcome", "miss")  \
  X(prefetch_deferred, "ftc_prefetch_pulls_outcome_total", "outcome",        \
    "deferred")                                                              \
  X(prefetch_local_hits, "ftc_prefetch_local_hits_total")                    \
  X(p2p_rescues, "ftc_p2p_rescues_total")                                    \
  X(p2p_bytes, "ftc_p2p_bytes_total")                                        \
  /* Partition tolerance (zero with fencing off / no partitions): kPut/   */ \
  /* kEvict refused kFencedEpoch (the attached delta fast-forwarded us    */ \
  /* before the retry); post-heal standby re-pushes for files whose       */ \
  /* replica chain crossed the heal delta.                                */ \
  X(fenced_puts, "ftc_client_fenced_puts_total")                             \
  X(reconcile_repushes, "ftc_client_reconcile_repushes_total")

class HvacClient {
 public:
  /// `servers` = the job's initial allocation (clients and servers are
  /// co-located; `self` identifies this client's node for telemetry).
  /// Throws std::invalid_argument when `config.validate(servers.size())`
  /// fails — a client with a zero timeout or an impossible replication
  /// factor must not exist at all rather than silently misbehave.
  HvacClient(NodeId self, rpc::Transport& transport, PfsStore& pfs,
             const std::vector<NodeId>& servers,
             const HvacClientConfig& config);

  /// Attaches this node's membership agent (not owned; must outlive the
  /// client).  Hash-ring mode only.  Once attached:
  ///   - placement comes from the agent's VersionedRing, and the client's
  ///     own ring is dropped (the local detector no longer publishes);
  ///   - a flagged node is reported as a SWIM *suspicion* instead of
  ///     being unilaterally removed — the cluster confirms or refutes;
  ///   - every outgoing request carries the client's ring epoch plus
  ///     piggybacked gossip, and responses are ingested (including the
  ///     kStaleView one-round-trip fast-forward);
  ///   - a cluster-wide kReinstate event clears the local detector's
  ///     history for that node.
  /// Never attached in legacy mode, leaving behaviour bit-identical.
  void attach_membership(membership::MembershipAgent* agent);

  /// Attaches this node's flight recorder (not owned; must outlive every
  /// async completion this client launches).  Every `sample_every`-th
  /// read_file call is traced end to end: a kClientRead root span plus
  /// child spans per attempt / hedge leg / busy retry / PFS fallback, and
  /// the context rides outgoing requests so servers extend the tree.
  /// `sample_every` == 0 attaches the recorder but samples no reads
  /// (events like suspicions are still recorded).  Never attached by
  /// default: the untraced hot path pays one null check per read.
  void attach_observability(obs::FlightRecorder* recorder,
                            std::uint32_t sample_every);

  /// The intercepted read: returns file contents or an error.  With
  /// FtMode::kNone a server timeout is fatal (returned to caller); the FT
  /// modes mask it per their strategy.  The returned Buffer references
  /// the server's cached bytes (zero-copy end to end in-process).
  StatusOr<common::Buffer> read_file(const std::string& path);

  /// Owner the client would contact for `path` right now.
  [[nodiscard]] NodeId current_owner(const std::string& path) const;

  /// Elastic scale-up: a new cache server joined the job.  In ring mode
  /// only ~1/(N+1) of keys move to it (each recached on first touch); in
  /// the static modes this is a full re-modulo — the movement asymmetry
  /// the paper's Sec IV-B argues from.  Reinstatement rides this same
  /// path: a probed-healthy probation node is re-added here.
  void add_server(NodeId node);

  /// Observed end-to-end latencies (microseconds) of successful
  /// non-hedged cache reads — the measurement behind the TTL guidance of
  /// Sec IV-A and the hedge-delay quantile.  Reads that hedged are
  /// excluded so the hedge policy cannot feed back into its own trigger.
  [[nodiscard]] const LatencyRecorder& latency() const { return latency_; }

  /// Epoch-boundary prefetch entry point (no-op unless prefetch.enabled):
  /// diffs `upcoming` — this node's next sample set, in read order —
  /// against ring placement and what is already staged, then starts
  /// bounded-depth background kPeerGet pulls for the remote-owned rest.
  /// Pending pulls from the previous epoch are dropped (counted
  /// prefetch_deferred); in-flight ones complete normally but no longer
  /// count against prefetch.depth.  The pipeline
  /// advances as the owning thread drains completions on every read.
  void prefetch_epoch(const std::vector<std::string>& upcoming);

  /// Blocks until no prefetch pull is pending or in flight (bench/test
  /// synchronization; the training path never needs it).
  void drain_prefetch();

  /// True while `path` sits in the local prefetch staging area (telemetry
  /// and tests; the read path consumes staged entries automatically).
  [[nodiscard]] bool has_prefetched(const std::string& path) const {
    return staged_prefetch_.find(path) != staged_prefetch_.end();
  }

  /// Latency samples the hedge-delay quantile and recommended_timeout
  /// need before they trust the window.
  static constexpr std::uint32_t kMinLatencySamples = 16;

  /// TTL the paper's rule would pick right now: max observed latency x
  /// `margin`, or the configured rpc_timeout until kMinLatencySamples exist.
  [[nodiscard]] std::chrono::milliseconds recommended_timeout(
      double margin = 2.0) const;

  /// Hedge delay the adaptive policy would use right now.
  [[nodiscard]] std::chrono::microseconds current_hedge_delay() const;

  /// Liveness probe (diagnostics only — the FT designs never rely on
  /// pings; detection is timeout-on-request).  Feeds the detector and the
  /// latency window like a data request.
  Status ping(NodeId node);

  /// True when the client routes no data traffic to `node` (probation or
  /// terminal failure).
  [[nodiscard]] bool node_failed(NodeId node) const {
    return detector_.is_out_of_service(node);
  }
  [[nodiscard]] NodeHealth node_health(NodeId node) const {
    return detector_.health(node);
  }
  [[nodiscard]] const FaultDetector& detector() const { return detector_; }
  [[nodiscard]] const HvacClientConfig& config() const { return config_; }

  /// True while `path` is promoted to a hot replica set (always false
  /// with hot_fanout off).  Telemetry/tests only — the read path makes
  /// this decision internally.
  [[nodiscard]] bool file_is_hot(const std::string& path) const {
    return hot_files_ != nullptr && hot_files_->is_promoted(path);
  }

  /// The client's current smoothed view of per-node load, as learned
  /// from piggybacked hints (read-only; diagnostics and benches).
  [[nodiscard]] const ring::NodeLoadEstimator& load_estimator() const {
    return load_estimator_;
  }

  struct Stats {
    FTC_HVAC_CLIENT_STATS(FTC_STATS_FIELD)
  };
  /// Value snapshot of the counters.  There is deliberately no reference
  /// accessor: callers can neither mutate the client's counters nor
  /// observe a torn mid-update state.  Counters are per-field relaxed
  /// atomics (metrics collectors and benches read them while the owning
  /// thread serves reads); the snapshot double-reads until two passes
  /// agree, so the multi-field view is consistent too.
  [[nodiscard]] Stats stats_snapshot() const;

 private:
  /// Raw replies of async calls (late hedge legs, probes, write-behind
  /// kPuts, prefetch pulls, hot-replica evicts), each tagged with what the
  /// call was for.  Owned via shared_ptr so completions arriving after the
  /// client (or the read that launched them) is gone write into
  /// refcounted memory, not a dangling `this`.  The owning thread drains
  /// it at the top of every read/ping and settles each reply there.
  struct Mailbox;

  /// How settle() sorted a reply.
  enum class ReplyClass : std::uint8_t {
    kLost,      ///< kTimeout/kUnavailable/kCancelled: the node did not serve
    kShed,      ///< kBusy: alive, protecting itself
    kFenced,    ///< kFencedEpoch: alive, our epoch lagged its own
    kAnswered,  ///< any other answer, served or refused
    kError,     ///< a transport error outside the lost set: no verdict
  };

  /// The one place a reply becomes node evidence: folds an answer's
  /// membership delta and load hint, records it as liveness for the
  /// detector, or counts a lost reply as a timeout (on_timeout).  Every
  /// reply is settled exactly once, on the owning thread, except the
  /// reinstatement probe's (on_probe_reply).
  ReplyClass settle(NodeId node, const StatusOr<rpc::RpcResponse>& result);
  /// A request of `op` for `path` from this client: sender, deadline and
  /// (agent attached) the membership stamp.
  [[nodiscard]] rpc::RpcRequest make_request(
      rpc::Op op, const std::string& path,
      rpc::DeadlineNs deadline = rpc::kNoDeadline) const;

  /// read_file minus the root-span bookkeeping; `trace` is the sampled
  /// root context (unsampled default when the read is not traced).
  StatusOr<common::Buffer> read_file_impl(const std::string& path,
                                          const obs::TraceContext& trace);
  StatusOr<common::Buffer> read_from_pfs(const std::string& path,
                                         const obs::TraceContext& trace);
  /// ring_'s current snapshot, pinned for the caller; null in the
  /// static-modulo modes (chain readers are hash-ring only by validate()).
  [[nodiscard]] std::shared_ptr<const membership::RingView> ring_view() const;
  /// Owner for `path` in `view` (skipping the nodes excluded_for_data
  /// rules out), or the static modulo owner when `view` is null.
  [[nodiscard]] NodeId resolve_owner(const membership::RingView* view,
                                     const std::string& path) const;
  /// Nodes a data request must not target (local evidence + gossip).
  [[nodiscard]] bool excluded_for_data(NodeId node) const;
  /// Folds a response's gossip/epoch delta into the membership agent and
  /// reacts to the resulting ring events (detector resets on reinstate).
  void ingest_membership(const rpc::RpcResponse& response);
  /// Handles a timeout against `owner`: detection bookkeeping, then a
  /// suspicion report (agent attached) or a published removal.
  void on_timeout(NodeId owner);
  /// Publishes one serving-set change on the client's own ring (no-op with
  /// an agent attached, or when the ring already reflects it).
  void publish(membership::RingEventType type, NodeId node);
  /// Settles every queued async reply through its purpose's handler.
  void drain_mailbox();
  /// A reinstatement probe's reply: only a served ping proves the node
  /// back (record_probe_success), anything else backs the next probe off.
  void on_probe_reply(NodeId node, const StatusOr<rpc::RpcResponse>& result);
  /// Launches async reinstatement probes for probation nodes past their
  /// backoff deadline.
  void maybe_probe();
  /// Reinstates a probed-healthy node into the placement.
  void reinstate(NodeId node);
  /// `node` is back in the ring holding whatever its cache holds now
  /// (after a restart, nothing), so no warm marking that names it can be
  /// trusted: clears those markings' targets.  The next read of each such
  /// file then re-places its standbys as a repair (warm_restores, under
  /// restore_concurrency) instead of adopting a set that looks unchanged.
  void distrust_warm_markings(NodeId node);
  /// One plain read attempt against `owner`: the result, or nullopt to
  /// retry (a shed reply leaves retry_is_server_directed_ set).
  std::optional<StatusOr<common::Buffer>> read_attempt(
      const std::string& path, NodeId owner, std::size_t attempt,
      bool server_directed, rpc::DeadlineNs deadline,
      const obs::TraceContext& trace);
  /// One hedged attempt: the primary leg, and past the hedge delay a race
  /// against the next ring successor (or the PFS).  Same contract as
  /// read_attempt.  `deadline` (kNoDeadline when total_deadline is off) is
  /// inherited by both legs on the wire and bounds their per-leg timeouts.
  std::optional<StatusOr<common::Buffer>> hedged_attempt(
      const std::string& path, NodeId owner, rpc::DeadlineNs deadline,
      const obs::TraceContext& trace);
  /// The attempt verdict, shared by the plain attempt and every hedge leg
  /// the race consumes: settles the reply, then serves it (CRC, counters,
  /// replica pushes), surfaces an application error, redirects per FT
  /// mode on a lost reply, or returns nullopt to retry.  A shed reply
  /// marks the retry server-directed and records its retry-after hint.
  /// `latency_us` is recorded as a latency sample when the node answered.
  std::optional<StatusOr<common::Buffer>> on_read_reply(
      const std::string& path, NodeId node, StatusOr<rpc::RpcResponse> result,
      std::optional<double> latency_us, const obs::TraceContext& trace);
  /// Per-attempt RPC timeout: rpc_timeout capped by the budget remaining
  /// before `deadline` (floor 1ms so an attempt is never zero-length).
  [[nodiscard]] std::chrono::milliseconds attempt_timeout(
      rpc::DeadlineNs deadline) const;
  /// Takes a retry-budget token for an extra attempt (retry or hedge
  /// leg); false = denied, with the denial counted.
  bool spend_retry_token();
  /// Sleeps the jittered exponential busy backoff (>= the server's
  /// retry-after hint, truncated at the read's deadline).
  void busy_backoff(std::uint32_t retry_after_ms, std::size_t attempt,
                    rpc::DeadlineNs deadline);
  /// The unified replica push (every policy in one pass): collects plans
  /// from the active ReplicationPolicies — miss-recache when `cache_fill`,
  /// the pending hot fanout, the warm standby — merges them into one
  /// deduplicated kPut per target node, and executes sync targets inline
  /// and async ones write-behind.  Every request shares `contents` by
  /// refcount.  No-op when no policy is active.  `extra` (peer-recache
  /// heal) is merged in when non-null, so a rescue's owner repair dedupes
  /// against any warm-standby or hot-fanout push for the same file.
  void push_replicas(const std::string& path, const common::Buffer& contents,
                     NodeId primary, bool cache_fill,
                     const placement::ReplicaPlan* extra = nullptr);
  /// Executes one merged target: a synchronous kPut, or a write-behind
  /// one whose reply arrives through the mailbox; on_put_reply handles
  /// both.
  void execute_put(const placement::MergedTarget& target,
                   const std::string& path, const common::Buffer& contents,
                   bool warm_restore);
  /// A kPut's reply, either write class: counts an acknowledged replica
  /// (and a warm push/restore), counts a fence, and unmarks a warm
  /// standby that was not placed so a later read retries it.
  void on_put_reply(NodeId node, const std::string& path, bool warm,
                    bool warm_restore,
                    const StatusOr<rpc::RpcResponse>& result);
  /// In-flight cap for a warm placement: restore_concurrency for a
  /// re-target of a marked file, write_behind_depth for a first placement.
  [[nodiscard]] std::uint32_t warm_cap(bool warm_restore) const;
  /// Re-runs the placement of warm pushes deferred at their cap, in path
  /// order, until the queue is empty or the next one is still capped.
  void retry_deferred_warm();
  /// Folds a response's piggybacked load hint into the estimator (no-op
  /// when neither skew knob is on, or the response carries no hint).
  void observe_load_hint(NodeId server, const rpc::RpcResponse& response);
  /// Read-target resolution with the skew knobs applied on top of
  /// resolve_owner, all in one ring snapshot: p2c over a hot replica set
  /// first, bounded-load spill second, plain owner otherwise.
  [[nodiscard]] NodeId pick_read_target(const std::string& path,
                                        const obs::TraceContext& trace);
  /// Per-read hot bookkeeping: epoch check, heat recording, promotion
  /// marking, decay-driven demotions.  No-op with hot_fanout off.
  void note_hot_access(const std::string& path);
  /// The placement generation replica sets are derived from: the epoch of
  /// the ring this client reads (0 in the static-modulo modes).
  [[nodiscard]] std::uint64_t placement_generation() const;
  /// Drops every promotion and evicts its replicas when the placement
  /// generation moved (the replica sets described a ring that is gone).
  void maybe_invalidate_hot();
  /// Tears down one demoted/invalidated promotion: best-effort async
  /// kEvict to the (current) replica chain beyond the primary.
  void retire_hot_replicas(const std::string& path, bool epoch_bump);
  /// Starts queued prefetch pulls until prefetch.depth of this epoch's
  /// are in flight (owning thread only; completion handlers call it again
  /// via drain).
  void issue_prefetch_pulls();
  /// One async kPeerGet pull for `path` against replica-chain hop `hop`
  /// (0 = ring owner).  Returns false when no eligible target exists at
  /// that hop (the path is dropped, not an error).
  bool issue_prefetch_pull(const std::string& path, std::uint32_t hop);
  /// A pull's reply: stages the bytes, walks a miss on to the next hop
  /// (p2p), re-queues a lost pull, defers a refused one; then refills the
  /// pipeline.  `corrupt` = the payload failed its CRC on the pool thread.
  void on_prefetch_reply(NodeId node, std::string path, std::uint32_t hop,
                         bool corrupt, StatusOr<rpc::RpcResponse> result);
  /// Last line of defense before read_from_pfs with prefetch.p2p on:
  /// walks the replica chain synchronously over kPeerGet and, on a hit,
  /// heals the authoritative owner through the merged replica-push path
  /// (PeerRecachePolicy).  kNotFound when no peer holds the bytes.
  StatusOr<common::Buffer> peer_rescue(const std::string& path,
                                       rpc::DeadlineNs deadline,
                                       const obs::TraceContext& trace);

  NodeId self_;
  rpc::Transport& transport_;
  PfsStore& pfs_;
  HvacClientConfig config_;
  /// NoFT and FT w/ PFS place by the original static modulo, matching
  /// the systems compared in Sec V; null in hash-ring mode.
  std::unique_ptr<ring::StaticModuloPlacement> modulo_;
  /// Hash-ring mode without an agent: the ring the paper's detector
  /// publishes removals, reinstatements and joins on (never gossiped).
  std::unique_ptr<membership::VersionedRing> local_ring_;
  /// The one ring every lookup reads: local_ring_, or the attached
  /// agent's.  Null in the static-modulo modes.
  const membership::VersionedRing* ring_ = nullptr;
  membership::MembershipAgent* membership_ = nullptr;
  FaultDetector detector_;
  /// Counters as per-field relaxed atomics: the owning thread is the only
  /// writer, but metrics collectors and benches snapshot concurrently —
  /// plain fields would be a torn (and formally racy) read.  Field names
  /// mirror the public Stats POD; stats_snapshot() assembles it.
  struct AtomicStats {
    FTC_HVAC_CLIENT_STATS(FTC_STATS_ATOMIC)
  };
  AtomicStats stats_;
  LatencyRecorder latency_;
  std::shared_ptr<Mailbox> mailbox_;
  /// Token bucket shared by timeout-retries and hedge legs (no-op with
  /// retry_budget_ratio == 0).
  RetryBudget retry_budget_;
  /// Jitter stream for busy backoff; seeded from ring_seed ^ self so
  /// co-located clients never backoff in lockstep (synchronized retries
  /// re-create the very burst the backoff exists to spread).
  Rng backoff_rng_;
  /// Set by a shed read reply: the next retry was directed by a shedding
  /// server (kBusy + retry_after), so it is exempt from the speculative
  /// retry budget — it is paced by the server's hint (the largest of the
  /// attempt's, in busy_retry_after_ms_) and the deadline instead.
  bool retry_is_server_directed_ = false;
  std::uint32_t busy_retry_after_ms_ = 0;
  /// Per-node load view fed by piggybacked hints (single-threaded: only
  /// settle(), on the owning thread, observes into it).
  ring::NodeLoadEstimator load_estimator_;
  /// Replication policies (placement arithmetic only; this client
  /// executes their plans).  Each is null unless its knob is on, so the
  /// all-legacy fast path in push_replicas is three null checks.
  std::unique_ptr<placement::MissRecachePolicy> miss_policy_;
  std::unique_ptr<placement::HotFanoutPolicy> hot_policy_;
  std::unique_ptr<placement::WarmStandbyPolicy> warm_policy_;
  /// Warm bookkeeping: path -> the placement generation its standbys were
  /// pushed under plus the standby set actually placed.  A generation
  /// mismatch means the marking describes a dead ring — but the bytes
  /// only move again if the recomputed standby set differs; a ring change
  /// that left this file's successors alone just adopts the new
  /// generation (most files, on most epoch bumps).  Marked at issue time;
  /// a failed push erases its entry so a later read retries.
  struct WarmMarking {
    std::uint64_t generation = 0;
    std::vector<NodeId> targets;
  };
  std::unordered_map<std::string, WarmMarking> warm_pushed_;
  /// Post-heal reconciliation scope: nodes named by ring-event deltas of
  /// kStaleView fast-forwards.  A warm re-target whose old or new standby
  /// set touches one of these nodes is counted as a reconcile re-push —
  /// the minority's divergent suffix being walked back onto the healed
  /// ring through the ordinary lazy re-target machinery.  Each file
  /// re-targets at most once per generation (the warm marking adopts the
  /// new one), so the set accumulating across heals cannot double-count;
  /// it is bounded by the cluster size.
  std::unordered_set<NodeId> reconcile_touched_;
  /// In-flight write-behind standby puts (shared with the completion
  /// callbacks, which outlive any single read).  Bounds the write-behind
  /// queue: write_behind_depth for first placements, restore_concurrency
  /// for generation repairs.
  std::shared_ptr<std::atomic<std::uint32_t>> warm_inflight_;
  /// Warm pushes deferred at their cap, with the bytes (a refcounted
  /// share) and the serving node of the read that planned them.  Retried
  /// as write-behind completions free slots (drain_mailbox), so a deferred
  /// file does not wait for its next read — which may never come before
  /// the ring moves again.
  struct DeferredWarm {
    common::Buffer contents;
    NodeId primary = 0;
  };
  std::map<std::string, DeferredWarm> warm_deferred_;
  /// Heat sketch + promotion state; null unless hot_fanout is on.
  std::unique_ptr<HotFilePromoter> hot_files_;
  /// Promoted files whose replica fanout has not been pushed yet — the
  /// kPut fanout needs the contents, so it rides the next successful
  /// read of the file.
  std::unordered_set<std::string> pending_hot_fanout_;
  /// placement_generation() value the current promotions were made under.
  std::uint64_t hot_generation_ = 0;
  /// Tie-break stream for power-of-two-choices replica picks.  Separate
  /// from backoff_rng_ so enabling fanout never perturbs the legacy
  /// backoff jitter sequence.
  Rng spread_rng_;
  /// Epoch-ahead prefetch state (all empty/null with prefetch.enabled
  /// off).  The planner is stateless arithmetic; the staging area maps
  /// path -> pulled payload (consumed, and erased, by the first read).
  /// Pulls complete on transport pool threads and surface through the
  /// mailbox like every other async outcome; `prefetch_inflight_` is
  /// shared with the completion callbacks the same way warm_inflight_ is.
  prefetch::EpochPrefetchPlanner prefetch_planner_;
  struct StagedPrefetch {
    common::Buffer payload;
    std::uint64_t generation = 0;  ///< serving peer's ledger stamp
  };
  std::unordered_map<std::string, StagedPrefetch> staged_prefetch_;
  std::deque<std::string> prefetch_pending_;
  /// Every pull in flight (drain_prefetch waits for 0).
  std::shared_ptr<std::atomic<std::uint32_t>> prefetch_inflight_;
  /// Of those, the pulls issued since the last prefetch_epoch: the count
  /// prefetch.depth caps.  Each epoch gets a fresh counter, so pulls of a
  /// superseded epoch decrement one nobody reads any more.
  std::shared_ptr<std::atomic<std::uint32_t>> prefetch_epoch_inflight_;
  /// Peer-recache placement arithmetic; null unless prefetch.p2p is on.
  std::unique_ptr<placement::PeerRecachePolicy> peer_policy_;
  /// Observability (attach_observability): nullptr recorder = tracing off,
  /// the untraced path pays one null check per read.
  obs::FlightRecorder* recorder_ = nullptr;
  std::uint32_t trace_sample_every_ = 0;
  std::uint64_t trace_seq_ = 0;
};

}  // namespace ftc::cluster
