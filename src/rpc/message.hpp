// message.hpp - RPC request/response types.
//
// The wire vocabulary between HVAC clients and servers, mirroring the
// Mercury RPCs of the original system: a read request carries the file
// path (the hash key) and returns status + payload.  The threaded
// transport passes these by value in-process; no serialization is needed,
// which is fine because the FT logic only observes request/response/timeout
// semantics, not encodings.
//
// Membership piggyback: every request/response can additionally carry
// (a) the sender's current ring epoch, (b) a handful of SWIM membership
// claims (gossip rides on data traffic, it never gets its own connection),
// and (c) — on responses to stale-epoch requests — a kStaleView hint with
// the epoch delta, so a lagging client fast-forwards its ring view in one
// round trip instead of rediscovering failures through its own timeouts.
// The wire structs below are deliberately plain (no membership headers):
// rpc sits beneath membership in the layer order.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/trace_context.hpp"

namespace ftc::rpc {

enum class Op : std::uint8_t {
  kReadFile = 0,   ///< Fetch a whole cached file.
  kPing = 1,       ///< Liveness probe (used by diagnostics, not detection —
                   ///< the paper's detection is purely timeout-on-request).
  kEvict = 2,      ///< Drop a file from the server's cache (tests/tools).
  kStats = 3,      ///< Server cache statistics snapshot.
  kPut = 4,        ///< Store a payload in the server's cache — the
                   ///< replication extension's backup-placement op.
  kSwimPing = 5,   ///< SWIM direct probe; ack proves the node serves.
  kSwimPingReq = 6,     ///< SWIM indirect probe: "ping `subject` for me".
  kMembershipSync = 7,  ///< Full membership pull (joiners, truncated logs).
  kSwimVerdict = 8,     ///< Proxy -> origin: outcome of a kSwimPingReq
                        ///< errand (`subject` + `subject_reachable`).  A
                        ///< separate push, never an inline reply — the
                        ///< proxy must not block its server worker on the
                        ///< nested ping.
  kPeerGet = 9,    ///< Cache-only peer transfer: serve the file from NVMe
                   ///< or answer kNotFound — never touch the PFS.  The
                   ///< prefetch planner's background pulls and the p2p
                   ///< recache path use it to move bytes node-to-node;
                   ///< responses carry the server's replica-generation
                   ///< ledger stamp so a pulled standby copy keeps its
                   ///< provenance.  Data plane: sheds at the read class.
};

/// True for the SWIM membership-protocol verbs (probe/indirect/verdict/
/// sync), false for the data plane (reads, puts, diagnostics).
constexpr bool is_membership_op(Op op) {
  return op == Op::kSwimPing || op == Op::kSwimPingReq ||
         op == Op::kSwimVerdict || op == Op::kMembershipSync;
}

/// Absolute request deadline carried on the wire: integer nanoseconds on
/// the steady clock's epoch, the threaded substrate's analogue of the DES
/// substrate's integer SimTime.  A plain integer (not a time_point) so the
/// wire struct stays POD-ish and the DES substrate can reuse the field
/// with its own clock.  kNoDeadline (0) = the request never expires (every
/// legacy sender).
using DeadlineNs = std::int64_t;
constexpr DeadlineNs kNoDeadline = 0;

/// Now, on the deadline clock.
inline DeadlineNs deadline_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Absolute deadline `budget` from now.
inline DeadlineNs deadline_in(std::chrono::nanoseconds budget) {
  return deadline_clock_ns() + budget.count();
}

/// True when `deadline` is set and has passed — the signal for a server to
/// shed the work instead of executing it.
inline bool deadline_expired(DeadlineNs deadline) {
  return deadline != kNoDeadline && deadline_clock_ns() >= deadline;
}

/// Budget left before `deadline` (negative when already expired; the
/// maximum duration when no deadline is set).
inline std::chrono::nanoseconds deadline_remaining(DeadlineNs deadline) {
  if (deadline == kNoDeadline) return std::chrono::nanoseconds::max();
  return std::chrono::nanoseconds(deadline - deadline_clock_ns());
}

/// `ring_epoch` value of a sender that does not participate in the
/// membership protocol (legacy mode).  Distinct from 0, which means "I am
/// epoch-aware but have seen no membership events yet" and therefore wants
/// the full delta.
constexpr std::uint64_t kEpochUnaware =
    std::numeric_limits<std::uint64_t>::max();

/// One SWIM membership assertion, piggybacked on any RPC: "I believe
/// `subject` is in `state` at `incarnation`".  State values are
/// membership::MemberState underlying values (alive=0 suspect=1 failed=2);
/// kept as a raw byte here so rpc does not depend on membership headers.
struct MembershipClaim {
  ftc::NodeId subject = ftc::kInvalidNode;
  std::uint8_t state = 0;
  std::uint64_t incarnation = 0;
};

/// One epoch-stamped ring transition — an entry of the membership event
/// log, shipped as the kStaleView fast-forward delta.  Kind values are
/// membership::RingEventType underlying values.
struct RingDelta {
  std::uint64_t epoch = 0;
  std::uint8_t kind = 0;
  ftc::NodeId node = ftc::kInvalidNode;
  std::uint64_t incarnation = 0;
};

/// Response-side freshness verdict about the requester's ring view.
enum class ViewHint : std::uint8_t {
  kNone = 0,       ///< Request epoch current (or sender epoch-unaware).
  kStaleView = 1,  ///< Request epoch lags; view_delta/gossip carry the fix.
};

struct RpcRequest {
  Op op = Op::kReadFile;
  std::string path;
  /// Payload for kPut (backup replica contents); empty otherwise.
  /// Refcounted: a replication fan-out shares one payload across every
  /// backup request instead of copying per target.
  common::Buffer payload;
  /// Originating client node (telemetry only; servers must not use it for
  /// placement decisions).
  ftc::NodeId client_node = 0;
  /// kSwimPingReq: the node the proxy should probe on our behalf.
  /// kSwimVerdict: the node the verdict is about.
  ftc::NodeId subject = ftc::kInvalidNode;
  /// kSwimVerdict only: whether the proxy's nested ping reached `subject`.
  bool subject_reachable = false;
  /// Sender's current ring epoch (kEpochUnaware in legacy mode).
  std::uint64_t ring_epoch = kEpochUnaware;
  /// Sender's ring fingerprint (0 = unstamped).  Epoch labels are local
  /// counters, so two sides of a healed partition can present the SAME
  /// number for DIFFERENT rings — the fingerprint is what lets a responder
  /// see through the label collision and force a full reconciliation
  /// instead of concluding the views already agree.
  std::uint64_t ring_fingerprint = 0;
  /// Piggybacked membership claims (empty in legacy mode).
  std::vector<MembershipClaim> gossip;
  /// Absolute deadline after which the sender no longer wants the answer.
  /// Servers shed expired work before executing it; hedge legs and
  /// retries inherit the read's remaining budget through this field.
  /// kNoDeadline = never expires (legacy senders).
  DeadlineNs deadline_ns = kNoDeadline;
  /// kPut only: the placement generation (ring epoch) the sender derived
  /// the replica target from.  A server remembers the highest stamped
  /// generation per path and answers kCancelled to anything older, so a
  /// lagging client can never roll a warm standby back to a dead ring's
  /// placement.  0 = unstamped (every legacy sender, bit-for-bit).
  std::uint64_t replica_generation = 0;
  /// Tracing context for this request (all-zero / unsampled by default —
  /// the wire default is bit-for-bit an uninstrumented sender).  Lets a
  /// server attribute its admission/queue/execute phases to the exact
  /// client attempt (primary, hedge leg, busy retry) that sent the work.
  obs::TraceContext trace;
};

struct RpcResponse {
  StatusCode code = StatusCode::kOk;
  /// Refcounted payload: a cache hit hands out a reference to the stored
  /// bytes — the response, the cache entry, and (on a miss) the deferred
  /// recache all share one allocation.
  common::Buffer payload;
  /// True when the server had the file cached (vs fetched from PFS).
  bool cache_hit = false;
  /// CRC-32 of payload for end-to-end integrity verification.
  std::uint32_t checksum = 0;
  /// Responder's current ring epoch (kEpochUnaware in legacy mode).
  std::uint64_t ring_epoch = kEpochUnaware;
  /// kStaleView when the request's epoch lagged the responder's.
  ViewHint view_hint = ViewHint::kNone;
  /// The epoch delta backing a kStaleView hint: every ring transition the
  /// requester is missing, oldest first.  Empty when the responder's event
  /// log was truncated past the requester's epoch — `gossip` then carries
  /// a full-state claim dump instead.
  std::vector<RingDelta> view_delta;
  /// Piggybacked membership claims (empty in legacy mode).
  std::vector<MembershipClaim> gossip;
  /// With code == kBusy: how long the sender suggests waiting before a
  /// retry, scaled by its backlog.  Advisory — clients combine it with
  /// their own jittered backoff.  0 otherwise.
  std::uint32_t retry_after_ms = 0;
  /// Piggybacked load telemetry: the responder's smoothed queue depth +
  /// in-flight work (EWMA, fixed-point ×256), encoded as value + 1 so a
  /// genuinely idle responder (load 0) is distinguishable from a legacy
  /// one.  0 = unset — the wire default, bit-for-bit identical to a
  /// sender without load reporting.  Clients feed these into the
  /// bounded-load spill and power-of-two-choices decisions; no extra
  /// round trips are ever spent on load discovery.
  std::uint32_t load_hint = 0;
  /// kPeerGet only: the responder's replica-generation ledger stamp for
  /// the served path (0 = unstamped / ledger has no entry — also the wire
  /// default, bit-for-bit identical for every other op).  A puller that
  /// re-places the bytes forwards this stamp so the generation ledger's
  /// staleness rules keep holding across node-to-node hops.
  std::uint64_t replica_generation = 0;
};

/// Fixed-point scale of RpcResponse::load_hint.
constexpr double kLoadHintScale = 256.0;

/// Encodes a non-negative load estimate into the +1-biased wire form.
inline std::uint32_t encode_load_hint(double load) {
  if (load < 0.0) load = 0.0;
  const double fixed = load * kLoadHintScale + 1.0;
  constexpr double kMax = 4294967295.0;
  return static_cast<std::uint32_t>(fixed < kMax ? fixed : kMax);
}

/// True when a response carries a load estimate.
inline bool has_load_hint(const RpcResponse& response) {
  return response.load_hint != 0;
}

/// Decodes the +1-biased wire form back into a load estimate.  Only
/// meaningful when has_load_hint(); returns 0 otherwise.
inline double decode_load_hint(std::uint32_t hint) {
  if (hint == 0) return 0.0;
  return static_cast<double>(hint - 1) / kLoadHintScale;
}

}  // namespace ftc::rpc
