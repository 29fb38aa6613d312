// swim.hpp - SWIM-style membership agent with epoch-versioned ring views.
//
// The seed detects failures purely client-locally: each client counts its
// own timeouts and removes the node from a ring of its own, so N clients
// pay N detection latencies per dead node (N x TIMEOUT_LIMIT wasted
// requests) and their rings drift apart silently.  The MembershipAgent replaces
// that with the SWIM discipline [Das et al., DSN'02], adapted to ride on
// the cache's existing RPC plane:
//
//   probe      One random-round-robin member is pinged (kSwimPing) every
//              probe period.  An ack proves liveness.
//   indirect   On probe timeout, k proxies are asked to ping the target
//              on our behalf (kSwimPingReq) — this separates "the target
//              is dead" from "my path to the target is bad", which is
//              exactly the confusion gray failures exploit.  The proxy
//              ACCEPTS the errand immediately and pings asynchronously;
//              the outcome comes back as a separate kSwimVerdict push
//              (SWIM's ping-req ack is its own packet).  Nothing in the
//              protocol ever blocks a server worker: a blocking nested
//              ping would starve every request queued behind it for
//              probe_timeout and convert one dead node into a cascade of
//              false suspicions of live ones.
//   suspect    Still no ack: the target becomes a *suspect* (it keeps
//              serving) and the rumor gossips.  The target, seeing itself
//              suspected in incoming gossip, refutes by incrementing its
//              incarnation — only the subject mints its own incarnations.
//   confirm    Suspicion unrefuted for `suspicion_periods` probe periods:
//              the node is confirmed failed, removed from the ring, and a
//              `failed` claim (indisputable) gossips.
//
// Gossip piggybacks on everything — data reads, probes, acks — via
// bounded claim queues with per-claim retransmit budgets (epidemic
// dissemination, O(log N) rounds to saturate).
//
// Every serving-set change bumps the ring epoch (see ring_view.hpp).
// Requests carry the sender's epoch; a server that is ahead answers with
// ViewHint::kStaleView plus the event delta, and the client fast-forwards
// in one round trip.  The client's FaultDetector degrades from placement
// authority to a local evidence source: its verdicts enter the protocol
// as suspicions, and the cluster — not the individual client — decides.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats_macros.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "membership/event.hpp"
#include "membership/member_table.hpp"
#include "obs/flight_recorder.hpp"
#include "membership/ring_view.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "rpc/message.hpp"
#include "rpc/transport.hpp"

namespace ftc::membership {

struct SwimConfig {
  /// Master switch: false (default) preserves the seed's client-local
  /// detection bit-for-bit — no agents, no piggyback, no new RPC verbs.
  bool enabled = false;

  /// Gap between probe rounds (SWIM's protocol period T').
  std::chrono::milliseconds probe_period{15};
  /// Deadline for the direct kSwimPing ack.
  std::chrono::milliseconds probe_timeout{25};
  /// Deadline for each indirect kSwimPingReq round trip (covers the
  /// proxy's own nested ping, so it must exceed probe_timeout).
  std::chrono::milliseconds indirect_timeout{60};
  /// Proxies asked to ping an unresponsive target (SWIM's k).
  std::uint32_t indirect_proxies = 2;
  /// Probe periods a suspicion stays open before confirmation.
  std::uint32_t suspicion_periods = 3;
  /// Distinct accusers required before this agent *originates* a failure
  /// confirmation (gossiped confirms from peers are still indisputable).
  /// 1 (the default) is classic SWIM — any single unrefuted suspicion
  /// confirms.  Raising it to k makes a minority side of a partition
  /// (fewer than k possible accusers) defer its confirms indefinitely
  /// instead of mass-evicting the healthy majority: suspicions still
  /// open and gossip, but the eviction decision needs k voices.
  /// Evidence rides existing gossip/verdict traffic — no new RPCs.
  std::uint32_t suspicion_quorum = 1;
  /// Times each gossip claim is piggybacked before it is dropped
  /// (lambda*log(N) in the paper; a small constant is plenty at our N).
  std::uint32_t claim_retransmits = 6;
  /// Max claims piggybacked per message (bounds header growth).
  std::uint32_t max_piggyback = 8;

  /// When true a confirmed-failed node that refutes (drained node handed
  /// back) is reinstated, up to max_rejoins returns; when false failure
  /// is terminal (the paper's crash-stop model).
  bool allow_rejoin = true;
  std::uint32_t max_rejoins = 3;

  /// When true the Cluster drives probe_tick() from a background
  /// GossipScheduler thread (real-time behaviour); when false tests tick
  /// agents manually for determinism.
  bool background = true;

  /// Deterministic seed for probe-order shuffling (forked per agent).
  std::uint64_t seed = 0;
  /// Ring events kept for kStaleView deltas before full-sync fallback.
  std::size_t event_log_capacity = 256;

  [[nodiscard]] Status validate() const;
};

/// The agent's protocol counters (guarded by the agent mutex), the one
/// definition of each: X(field, metric) (common/stats_macros.hpp).
/// Expands to the counter fields of MembershipAgent::Stats and the SWIM
/// block of Cluster::collect_metrics.
#define FTC_SWIM_STATS(X)                                                    \
  X(probes_sent, "ftc_swim_probes_sent_total")                               \
  X(indirect_probes_sent, "ftc_swim_indirect_probes_total")                  \
  X(acks_received, "ftc_swim_acks_received_total")                           \
  /* proxy-side kSwimVerdict pushes; origin-side verdicts ingested, and   */ \
  /* of those the "could not reach" ones                                  */ \
  X(verdicts_sent, "ftc_swim_verdicts_sent_total")                           \
  X(verdicts_received, "ftc_swim_verdicts_received_total")                   \
  X(verdicts_unreachable, "ftc_swim_verdicts_unreachable_total")             \
  X(suspicions, "ftc_swim_suspicions_total") /* suspect transitions */       \
  X(confirms, "ftc_swim_confirms_total")     /* failure confirmations */     \
  X(refutations, "ftc_swim_refutations_total") /* own-incarnation bumps */   \
  X(reinstatements, "ftc_swim_reinstatements_total") /* failed -> alive */   \
  X(joins, "ftc_swim_joins_total") /* nodes admitted after epoch 0 */        \
  X(gossip_claims_sent, "ftc_swim_gossip_claims_sent_total")                 \
  /* ingested claims that changed state */                                   \
  X(claims_applied, "ftc_swim_claims_applied_total")                         \
  X(stale_view_hints_sent, "ftc_swim_stale_view_hints_sent_total")           \
  X(deltas_served, "ftc_swim_deltas_served_total")                           \
  X(full_syncs_served, "ftc_swim_full_syncs_served_total")                   \
  /* kStaleView hints acted upon */                                          \
  X(fast_forwards, "ftc_swim_fast_forwards_total")                           \
  /* Partition tolerance: nodes we accused that refuted, confirm attempts */ \
  /* held for quorum, re-delivered kSwimVerdict pushes.                   */ \
  X(false_suspicions, "ftc_swim_false_suspicions_total")                     \
  X(confirms_deferred, "ftc_swim_confirms_deferred_total")                   \
  X(duplicate_verdicts, "ftc_swim_duplicate_verdicts_total")

class MembershipAgent {
 public:
  /// `members` is the initial cluster (must include `self`); all agents
  /// of a job must be constructed with the same list and ring config so
  /// their epoch-0 views agree (fingerprint-identical, like the seed).
  MembershipAgent(NodeId self, rpc::Transport& transport, SwimConfig config,
                  const ring::RingConfig& ring_config,
                  const std::vector<NodeId>& members);
  ~MembershipAgent();

  MembershipAgent(const MembershipAgent&) = delete;
  MembershipAgent& operator=(const MembershipAgent&) = delete;

  /// One SWIM protocol period: expire suspicions into confirmations,
  /// then probe the next member in the randomized round-robin order.
  /// Driven externally (GossipScheduler or a test loop).  Self-gates
  /// when the local endpoint is killed — a crashed node must not keep
  /// probing or refuting through its still-working outgoing path.
  void probe_tick();

  /// Outgoing data-path stamping: sender epoch + piggybacked claims.
  void stamp_request(rpc::RpcRequest& request);

  /// Folds a response's gossip/delta into local state.  Returns the ring
  /// transitions this ingestion caused, in application order — the
  /// caller reacts to them (e.g. HvacClient resets its FaultDetector on
  /// kReinstate).
  std::vector<RingEvent> ingest(const rpc::RpcResponse& response);

  /// Server side: folds a request's gossip (before handling).
  void observe_request(const rpc::RpcRequest& request);

  /// Server side: stamps epoch + gossip onto an outgoing response, and
  /// when the request's epoch lags ours attaches ViewHint::kStaleView
  /// with the event delta (or a full claim dump if the log was
  /// truncated past the requester's epoch).
  void stamp_response(const rpc::RpcRequest& request,
                      rpc::RpcResponse& response);

  /// Dispatches the membership RPC verbs (kSwimPing / kSwimPingReq /
  /// kSwimVerdict / kMembershipSync).  kSwimPingReq replies "accepted"
  /// immediately and runs the nested ping on the transport's async pool;
  /// the reachability outcome is pushed back to the origin as a
  /// kSwimVerdict RPC.  No verb blocks the calling worker thread.
  rpc::RpcResponse handle(const rpc::RpcRequest& request);

  /// Local-evidence suspicion (the FaultDetector's verdict entering the
  /// protocol): starts the suspicion timer and gossips the rumor.  The
  /// node keeps serving until the cluster confirms.
  void suspect(NodeId node);

  /// Elastic scale-up: admits `node` as alive (epoch bump + join claim).
  /// The scheduler tells every sitting member; gossip covers stragglers.
  void join(NodeId node);

  /// Current immutable placement snapshot (never null).
  [[nodiscard]] std::shared_ptr<const RingView> ring_view() const;
  /// The agent's published ring itself: an attached HvacClient reads its
  /// placement from here instead of keeping a ring of its own.
  [[nodiscard]] const VersionedRing& ring() const;
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::uint64_t ring_fingerprint() const;

  [[nodiscard]] NodeId self() const;
  /// True while `node` is in the serving set (alive or suspect).
  [[nodiscard]] bool is_serving(NodeId node) const;
  [[nodiscard]] bool is_suspect(NodeId node) const;
  [[nodiscard]] MemberState member_state(NodeId node) const;
  [[nodiscard]] std::uint64_t incarnation(NodeId node) const;

  struct Stats {
    // Gauges read from the ring and the member table at snapshot time,
    // not counted, so not in the list.
    std::uint64_t epoch = 0;
    std::size_t members_alive = 0;
    std::size_t members_suspect = 0;
    std::size_t members_failed = 0;
    FTC_SWIM_STATS(FTC_STATS_FIELD)
  };
  [[nodiscard]] Stats stats_snapshot() const;

  /// Attaches the node's flight recorder (not owned; must outlive the
  /// agent).  Ring transitions and suspicion verdicts are then recorded
  /// as membership events — the raw material of a storm timeline (first
  /// suspicion -> ring epoch bump -> recovery).  nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder);

 private:
  struct Impl;
  /// Async probe callbacks capture this shared_ptr, so completions that
  /// outlive the agent (transport drains after destruction) stay safe —
  /// the Mailbox idiom from HvacClient.
  std::shared_ptr<Impl> impl_;
};

}  // namespace ftc::membership
