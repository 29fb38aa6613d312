// replication_policy.hpp - The cluster's unified write/replication surface.
//
// Before this layer existed, three ad-hoc paths pushed bytes into peer
// caches — the client's miss-recache loop (replication extension), the
// hot-file kPut fanout (skew placement), and the server's own recache
// enqueue — each with its own knobs, stats and owner-chain walk.  A
// ReplicationPolicy turns "who else should hold these bytes, and how
// urgently" into one question with one answer shape:
//
//   inputs : path, the primary holder, the epoch'd placement generation,
//            the resolved ring owner chain, an exclusion predicate
//   outputs: a ReplicaPlan — target nodes, a write class (inline vs
//            write-behind), and an optional generation stamp
//
// Policies are pure placement arithmetic: they never talk to a transport,
// hold no locks, and are trivially unit-testable.  The client (and the
// server, for its local recache) executes the plans; merge_plans() folds
// several concurrently firing policies into one deduplicated kPut set so
// a node is never sent two generations of the same replica in one fill
// (the hot-fanout / warm-standby overlap fix).
//
// The WarmStandbyPolicy is the new behaviour this interface was built
// for: every authoritative cache fill is write-behind replicated to the
// next `factor` distinct ring successors, stamped with the placement
// generation so a ring-epoch change lazily invalidates and re-targets the
// standbys.  On a node death the clockwise successor — the node every key
// fails over to — already holds the bytes, so a failover storm triggers
// ~0 PFS fetches (DESIGN.md §11, "Warm failover").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace ftc::placement {

/// Why a replication pass is firing.  Policies receive the full context
/// either way; the trigger is telemetry and write-class vocabulary.
enum class ReplicationTrigger : std::uint8_t {
  kMissRecache = 0,  ///< Client observed an authoritative fill on a miss.
  kHotFanout = 1,    ///< Popularity sketch promoted the file.
  kWarmStandby = 2,  ///< Proactive standby placement / generation repair.
  kLocalFill = 3,    ///< Server recaching its own PFS fetch.
  kPeerRecache = 4,  ///< A p2p rescue (kPeerGet from a warm peer) healing
                     ///< the authoritative owner node-to-node instead of
                     ///< letting it re-fetch from the PFS.
};

const char* trigger_name(ReplicationTrigger trigger);

/// How the executor must push the plan's targets.
enum class WriteClass : std::uint8_t {
  kSyncInline = 0,       ///< Caller blocks per target (legacy miss-recache:
                         ///< the fill and its backups land together).
  kAsyncWriteBehind = 1  ///< Queued on the async pool; the read path never
                         ///< serializes behind replica pushes.
};

/// One replica destination with the trigger that wants it (telemetry).
struct ReplicaTarget {
  NodeId node = kInvalidNode;
  ReplicationTrigger trigger = ReplicationTrigger::kMissRecache;
};

/// A policy's answer: where the bytes go and how.
struct ReplicaPlan {
  std::vector<ReplicaTarget> targets;
  WriteClass write_class = WriteClass::kSyncInline;
  /// Placement generation the targets were derived from; 0 = unstamped
  /// (legacy puts — the wire default, bit-for-bit the old kPut).
  std::uint64_t generation = 0;
};

/// Everything a policy may consult.  The caller resolves the owner chain
/// once (against its epoch'd ring view) for the longest chain_length()
/// over the policies it is about to ask — policies never walk the ring
/// themselves, which is what deleted the three duplicated chain walks.
struct PlanContext {
  std::string_view path;
  /// The node that served / authoritatively holds the fill; never a
  /// replica target (it has the bytes already).
  NodeId primary = kInvalidNode;
  /// Placement generation: the epoch of the ring the client reads (its
  /// membership agent's, or its own without one).
  std::uint64_t generation = 0;
  /// First N distinct ring owners clockwise from `path`'s position,
  /// N >= the policy's chain_length().  May be shorter when membership
  /// is smaller.  Never null.
  const std::vector<NodeId>* chain = nullptr;
  /// True for nodes the caller must not target (failed / suspect).
  /// Never null.
  const std::function<bool(NodeId)>* excluded = nullptr;
};

class ReplicationPolicy {
 public:
  virtual ~ReplicationPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Distinct ring owners the caller must resolve into ctx.chain.
  [[nodiscard]] virtual std::size_t chain_length() const = 0;

  /// Pure function of the context: the target set and write class.
  [[nodiscard]] virtual ReplicaPlan plan(const PlanContext& ctx) const = 0;
};

/// The replication extension's legacy behaviour (PR 1): on a miss fill,
/// synchronously place backups on the first `factor` distinct ring owners
/// beyond the primary.  Unstamped — invalidation is "the successor sees a
/// miss and recaches", exactly the paper's elastic flow.
class MissRecachePolicy final : public ReplicationPolicy {
 public:
  explicit MissRecachePolicy(std::uint32_t factor) : factor_(factor) {}
  [[nodiscard]] std::string_view name() const override {
    return "miss_recache";
  }
  [[nodiscard]] std::size_t chain_length() const override { return factor_; }
  [[nodiscard]] ReplicaPlan plan(const PlanContext& ctx) const override;

 private:
  std::uint32_t factor_;
};

/// The hot-file fanout (PR 7): asynchronously place a promoted file on
/// its whole replica set so reads can load-spread across it.  Unstamped —
/// the promoter invalidates replica sets wholesale on an epoch bump.
class HotFanoutPolicy final : public ReplicationPolicy {
 public:
  explicit HotFanoutPolicy(std::uint32_t fanout) : fanout_(fanout) {}
  [[nodiscard]] std::string_view name() const override { return "hot_fanout"; }
  [[nodiscard]] std::size_t chain_length() const override { return fanout_; }
  [[nodiscard]] ReplicaPlan plan(const PlanContext& ctx) const override;

 private:
  std::uint32_t fanout_;
};

/// Warm failover: every authoritative fill is write-behind replicated to
/// the next `factor` distinct ring successors, generation-stamped so the
/// receiving server can refuse a stale-ring replica and an epoch change
/// lazily re-targets the standbys.  The successor a failure routes keys
/// to is by construction the standby holder — degraded reads hit NVMe,
/// not the PFS.
class WarmStandbyPolicy final : public ReplicationPolicy {
 public:
  explicit WarmStandbyPolicy(std::uint32_t factor) : factor_(factor) {}
  [[nodiscard]] std::string_view name() const override {
    return "warm_standby";
  }
  [[nodiscard]] std::size_t chain_length() const override { return factor_; }
  [[nodiscard]] ReplicaPlan plan(const PlanContext& ctx) const override;

 private:
  std::uint32_t factor_;
};

/// Peer-to-peer recache (prefetch extension): a read was rescued over
/// kPeerGet from a warm peer (ring owner gone stale, or a standby) while
/// the authoritative owner does not hold the bytes.  The plan heals that
/// owner with one write-behind put — node-to-node, never via the PFS —
/// stamped with the generation the serving peer's ledger reported, so the
/// hop cannot launder a stale replica into a fresh-looking one.  Merged
/// through merge_plans() like every other producer, a shared successor
/// that warm standby is also targeting still receives exactly one kPut.
class PeerRecachePolicy final : public ReplicationPolicy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "peer_recache";
  }
  [[nodiscard]] std::size_t chain_length() const override { return 2; }
  [[nodiscard]] ReplicaPlan plan(const PlanContext& ctx) const override;
};

/// The server's own recache of a PFS fetch, expressed in the same
/// vocabulary: no remote targets (the "replica" is the local cache), only
/// the write-class decision the data-mover knob used to make inline.
class LocalRecachePolicy final : public ReplicationPolicy {
 public:
  explicit LocalRecachePolicy(bool async_mover) : async_(async_mover) {}
  [[nodiscard]] std::string_view name() const override {
    return "local_recache";
  }
  [[nodiscard]] std::size_t chain_length() const override { return 0; }
  [[nodiscard]] ReplicaPlan plan(const PlanContext& ctx) const override;

 private:
  bool async_;
};

/// One deduplicated kPut destination folded from several plans.
struct MergedTarget {
  NodeId node = kInvalidNode;
  /// Sync wins: if any contributing plan wants the target inline, the
  /// merged put is inline (the async plans just ride along).
  WriteClass write_class = WriteClass::kAsyncWriteBehind;
  /// Max over contributing plans — a node never receives an older
  /// generation of a replica it is also getting fresh.
  std::uint64_t generation = 0;
  /// OR of (1 << trigger) over contributing plans.
  std::uint8_t triggers = 0;

  [[nodiscard]] bool has_trigger(ReplicationTrigger trigger) const {
    return (triggers & static_cast<std::uint8_t>(
                           1U << static_cast<std::uint8_t>(trigger))) != 0;
  }
};

/// Folds concurrently firing plans into one put per node, preserving the
/// ring-chain order of first appearance.  This is the hot/warm overlap
/// fix: both policies walk the same successor chain, so without the merge
/// a shared successor would be sent the file twice — once unstamped, once
/// generation-stamped — and could end up storing two generations of the
/// same replica.
std::vector<MergedTarget> merge_plans(const std::vector<ReplicaPlan>& plans);

/// Replication knobs, collapsed from the old per-feature sprawl into one
/// nested block (HvacClientConfig::replication).  Old -> new mapping:
///   replication_factor  ->  replication.factor
/// (warm_standby, write_behind_depth and restore_concurrency are new.)
struct ReplicationConfig {
  /// Distinct ring owners that should hold every file (1 = the paper's
  /// single-owner system; backups beyond the primary are factor - 1).
  /// Valid: >= 1, <= cluster size at construction.
  std::uint32_t factor = 1;
  /// Warm failover: proactively replicate every authoritative fill to the
  /// next factor - 1 ring successors (write-behind, generation-stamped)
  /// so a node death is served from standby NVMe with ~0 PFS fetches.
  /// Requires factor >= 2 and hash-ring mode.
  bool warm_standby = false;
  /// Max in-flight write-behind standby puts per client for first-time
  /// placement; pushes beyond it are deferred and retried as in-flight
  /// ones complete.
  /// Valid with warm_standby: >= 1.
  std::uint32_t write_behind_depth = 64;
  /// Max in-flight standby re-pushes per client while repairing the
  /// replication factor after a ring-epoch change (the background restore
  /// is paced separately so repair traffic cannot monopolize the pool).
  /// Valid with warm_standby: >= 1.
  std::uint32_t restore_concurrency = 4;

  /// Rejects contradictory knob combinations; `cluster_size` (0 =
  /// unknown) additionally bounds factor.  Mode gating (warm_standby
  /// needs the hash ring) lives with the owning config, which knows the
  /// placement mode.
  [[nodiscard]] Status validate(std::size_t cluster_size = 0) const;
};

}  // namespace ftc::placement
