// ring_view.hpp - Epoch-versioned immutable snapshots of the hash ring.
//
// Every hash-ring client reads one VersionedRing: its membership agent's,
// or its own, on which the paper's client-local detector publishes
// removals, reinstatements and joins.  Under a lock, each transition
// mutates the snapshot (one flat vector of virtual positions) and stamps
// its RingView with a monotonically increasing epoch — both copies while
// a reader holds them.  Readers grab the current view via shared_ptr —
// lookups run lock-free against a snapshot that can never change under
// them, and the epoch number travels in every RPC so peers can detect
// (and fast-forward across) divergence.
//
// Epochs are burned ONLY by serving-set changes (join / probation /
// confirm-failed / reinstate).  Suspicion does not bump the epoch: a
// suspected node still serves (SWIM semantics), so the ring is unchanged
// and routing around suspects is a per-lookup exclusion predicate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "membership/event.hpp"
#include "ring/consistent_hash_ring.hpp"

namespace ftc::membership {

/// One immutable placement snapshot.  Everything is const; safe to share
/// across threads without synchronization.
class RingView {
 public:
  RingView(std::uint64_t epoch,
           std::shared_ptr<const ring::ConsistentHashRing> ring)
      : epoch_(epoch), ring_(std::move(ring)) {}

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  [[nodiscard]] NodeId owner(std::string_view key) const {
    return ring_->owner(key);
  }

  /// Owner skipping nodes the caller's local evidence rules out (e.g.
  /// SWIM suspects, detector out-of-service) without burning an epoch.
  [[nodiscard]] NodeId owner_excluding(
      std::string_view key,
      const std::function<bool(NodeId)>& excluded) const {
    return ring_->owner_of_hash_excluding(ring_->key_position(key), excluded);
  }

  /// First `count` distinct physical nodes clockwise (replica chain).
  [[nodiscard]] std::vector<NodeId> owner_chain(std::string_view key,
                                                std::size_t count) const {
    return ring_->owner_chain(key, count);
  }

  [[nodiscard]] bool contains(NodeId node) const {
    return ring_->contains(node);
  }
  [[nodiscard]] std::size_t node_count() const { return ring_->node_count(); }
  [[nodiscard]] std::uint64_t fingerprint() const {
    return ring_->fingerprint();
  }
  /// This epoch's frozen ring.  Because the snapshot is immutable, two
  /// clients holding views of the same epoch walk identical owner chains
  /// and bounded-load candidate chains — spill targets agree wherever the
  /// load predicates agree, which is what keeps the spilled working set
  /// cacheable instead of smearing across the fleet.
  [[nodiscard]] const ring::ConsistentHashRing& ring() const { return *ring_; }

 private:
  friend class VersionedRing;  // relabels a view no reader holds
  std::uint64_t epoch_;
  std::shared_ptr<const ring::ConsistentHashRing> ring_;
};

/// The published ring snapshot and its event history.  Thread-safe;
/// apply() serializes writers, view() is a shared_ptr load.
class VersionedRing {
 public:
  VersionedRing(const ring::RingConfig& config,
                const std::vector<NodeId>& members,
                std::size_t event_log_capacity);

  /// Current snapshot (never null; epoch 0 = the seeded membership).
  [[nodiscard]] std::shared_ptr<const RingView> view() const;
  [[nodiscard]] std::uint64_t epoch() const;

  /// Applies one serving-set transition and publishes a new view.  The
  /// new epoch is max(local + 1, min_epoch): when replaying a peer's
  /// delta, min_epoch carries the peer's epoch label so both sides end
  /// on the SAME number for the same event (gossip can collapse
  /// histories; without label adoption followers would drift low).
  /// Redundant events (adding a present node, removing an absent one)
  /// return nullopt and burn no epoch.
  std::optional<RingEvent> apply(RingEventType type, NodeId node,
                                 std::uint64_t incarnation,
                                 std::uint64_t min_epoch = 0);

  /// Events after `since`, oldest first; nullopt when the log cannot
  /// prove coverage — either events past `since` were evicted, or `since`
  /// lies below the full-sync floor left by a label adoption (see
  /// adopt_epoch).  Either way the caller must full-sync.
  [[nodiscard]] std::optional<std::vector<RingEvent>> delta_since(
      std::uint64_t since) const;

  /// Lowest epoch label delta_since can still answer (see adopt_epoch).
  [[nodiscard]] std::uint64_t sync_floor() const;

  /// Fast-forwards the epoch LABEL without changing the ring — used after
  /// ingesting a peer's delta whose transitions were all already applied
  /// locally (gossip raced the delta), or after a full claim dump: the
  /// serving sets agree but our label lags, and labels must converge for
  /// epoch comparison to mean anything.  No-op unless `epoch` is ahead.
  ///
  /// An effective adoption jumps the label PAST the newest logged event,
  /// leaving labels in (last event, adopted] with no log coverage.  The
  /// adopted label becomes the full-sync floor: delta_since for anything
  /// below it answers nullopt (forcing a full claim dump) instead of an
  /// empty-looking delta that would let a requester adopt our label while
  /// silently missing transitions — the large-gap divergence bug.
  void adopt_epoch(std::uint64_t epoch);

 private:
  mutable std::mutex mutex_;
  /// Ring current_ wraps: the next transition mutates it (in place, or a
  /// copy while a reader holds it), and adopt_epoch relabels it without a
  /// copy.
  std::shared_ptr<ring::ConsistentHashRing> snapshot_;
  std::shared_ptr<RingView> current_;
  EventLog log_;
  std::uint64_t epoch_ = 0;
  /// Set by adopt_epoch; labels below it are not delta-answerable.
  std::uint64_t sync_floor_ = 0;
};

}  // namespace ftc::membership
