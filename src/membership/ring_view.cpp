#include "membership/ring_view.hpp"

#include <algorithm>

namespace ftc::membership {

VersionedRing::VersionedRing(const ring::RingConfig& config,
                             const std::vector<NodeId>& members,
                             std::size_t event_log_capacity)
    : log_(event_log_capacity) {
  auto ring = std::make_shared<ring::ConsistentHashRing>(config);
  ring->add_nodes(members);
  snapshot_ = std::move(ring);
  current_ = std::make_shared<RingView>(0, snapshot_);
}

std::shared_ptr<const RingView> VersionedRing::view() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t VersionedRing::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::optional<RingEvent> VersionedRing::apply(RingEventType type, NodeId node,
                                              std::uint64_t incarnation,
                                              std::uint64_t min_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Idempotence: a transition the snapshot already reflects burns no
  // epoch (gossip delivers the same event along many paths).
  if (ring_event_adds(type) == snapshot_->contains(node)) return std::nullopt;
  // Published snapshots are immutable: publish a copy while any reader
  // may hold this one (the current view, or an older view after
  // adopt_epoch).  A new reader needs mutex_, so only earlier ones count,
  // and copying a shared_ptr is an acquire-release increment (libstdc++)
  // ordered after their releases.  Readers pin a view for one lookup, so
  // usually none does, and ring and view change in place, allocating
  // nothing.
  const std::shared_ptr<const RingView> view = current_;
  const std::shared_ptr<const ring::ConsistentHashRing> ring = snapshot_;
  const bool shared = view.use_count() != 2 || ring.use_count() != 3;
  if (shared) {
    snapshot_ = std::make_shared<ring::ConsistentHashRing>(*snapshot_);
  }
  if (ring_event_adds(type)) {
    snapshot_->add_node(node);
  } else {
    snapshot_->remove_node(node);
  }
  const std::uint64_t previous = epoch_;
  epoch_ = std::max(epoch_ + 1, min_epoch);
  if (epoch_ > previous + 1) {
    // min_epoch made the label jump: the skipped labels belong to peer
    // history this log never recorded, so deltas below the landing label
    // cannot prove coverage — same collapse as adopt_epoch.
    sync_floor_ = std::max(sync_floor_, epoch_);
  }
  if (shared) {
    current_ = std::make_shared<RingView>(epoch_, snapshot_);
  } else {
    current_->epoch_ = epoch_;
  }
  const RingEvent event{epoch_, type, node, incarnation};
  log_.append(event);
  return event;
}

std::optional<std::vector<RingEvent>> VersionedRing::delta_since(
    std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Below the adoption floor the label space has a hole the log cannot
  // see (adopt_epoch relabels without appending an event): answering
  // would produce an empty-but-plausible delta and the requester would
  // fast-forward its label while missing real transitions.
  if (since < sync_floor_) return std::nullopt;
  return log_.since(since);
}

std::uint64_t VersionedRing::sync_floor() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sync_floor_;
}

void VersionedRing::adopt_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (epoch <= epoch_) return;
  epoch_ = epoch;
  // The labels we just skipped have no log events behind them; requesters
  // inside the gap must full-sync (delta_since answers nullopt below the
  // floor).  Events applied after this resume normal delta service.
  sync_floor_ = epoch_;
  current_ = std::make_shared<RingView>(epoch_, snapshot_);
}

}  // namespace ftc::membership
