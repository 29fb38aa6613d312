#include "ring/consistent_hash_ring.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "hash/murmur3.hpp"

namespace ftc::ring {

namespace {

bool by_position(const ConsistentHashRing::VirtualNode& a,
                 const ConsistentHashRing::VirtualNode& b) {
  return a.position < b.position;
}

}  // namespace

std::uint64_t vnode_position(const RingConfig& config, NodeId node,
                             std::uint32_t replica) {
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(node) << 32) | replica;
  return hash::fmix64(packed ^ hash::fmix64(config.seed + 0x9E3779B97F4A7C15ULL));
}

std::uint32_t vnodes_for_weight(const RingConfig& config, double weight) {
  // Clamp before the cast: negative or huge weights must not wrap.
  double scaled = weight * static_cast<double>(config.vnodes_per_node) + 0.5;
  if (scaled < 1.0) scaled = 1.0;
  constexpr double kMaxReplicas = 1 << 20;
  if (scaled > kMaxReplicas) scaled = kMaxReplicas;
  return static_cast<std::uint32_t>(scaled);
}

ConsistentHashRing::ConsistentHashRing(RingConfig config)
    : config_(config) {
  if (config_.vnodes_per_node == 0) config_.vnodes_per_node = 1;
}

ConsistentHashRing::ConsistentHashRing(std::uint32_t node_count,
                                       RingConfig config)
    : ConsistentHashRing(config) {
  std::vector<NodeId> nodes(node_count);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  add_nodes(nodes);
}

void ConsistentHashRing::add_node(NodeId node) {
  add_node_weighted(node, 1.0);
}

void ConsistentHashRing::add_node_weighted(NodeId node, double weight) {
  add_nodes({node}, {weight});
}

void ConsistentHashRing::add_nodes(const std::vector<NodeId>& nodes,
                                   const std::vector<double>& weights) {
  std::vector<VirtualNode> merged = positions_;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint32_t count = vnodes_for_weight(
        config_, i < weights.size() ? weights[i] : 1.0);
    // Adding a present node is a no-op, also for a repeat within `nodes`.
    if (!vnodes_.try_emplace(nodes[i], count).second) continue;
    for (std::uint32_t r = 0; r < count; ++r) {
      merged.push_back(
          VirtualNode{vnode_position(config_, nodes[i], r), nodes[i]});
    }
  }
  const auto fresh = merged.begin() + static_cast<std::ptrdiff_t>(
                                          positions_.size());
  std::sort(fresh, merged.end(), by_position);
  std::inplace_merge(merged.begin(), fresh, merged.end(), by_position);
  if (std::adjacent_find(merged.begin(), merged.end(),
                         [](const VirtualNode& a, const VirtualNode& b) {
                           return a.position == b.position;
                         }) == merged.end()) {
    positions_ = std::move(merged);
    return;
  }
  // A taken position: place the new vnodes one at a time in insertion
  // order, probing upward (++pos while occupied) as MapHashRing does.
  // vnode_position is injective for one seed (fmix64 is a bijection), so
  // this runs only if the derivation ever changes; it keeps placement
  // from depending on that argument.
  const auto taken = [this](const VirtualNode& vnode) {
    return std::binary_search(positions_.begin(), positions_.end(), vnode,
                              by_position);
  };
  for (const NodeId node : nodes) {
    if (std::any_of(positions_.begin(), positions_.end(),
                    [node](const VirtualNode& v) { return v.node == node; })) {
      continue;
    }
    for (std::uint32_t r = 0; r < vnodes_.at(node); ++r) {
      VirtualNode vnode{vnode_position(config_, node, r), node};
      while (taken(vnode)) ++vnode.position;
      positions_.insert(std::lower_bound(positions_.begin(), positions_.end(),
                                         vnode, by_position),
                        vnode);
    }
  }
}

std::size_t ConsistentHashRing::vnode_count_of(NodeId node) const {
  const auto it = vnodes_.find(node);
  return it != vnodes_.end() ? it->second : 0;
}

void ConsistentHashRing::remove_node(NodeId node) {
  if (vnodes_.erase(node) == 0) return;
  std::erase_if(positions_,
                [node](const VirtualNode& v) { return v.node == node; });
}

bool ConsistentHashRing::contains(NodeId node) const {
  return vnodes_.contains(node);
}

std::vector<NodeId> ConsistentHashRing::nodes() const {
  std::vector<NodeId> out;
  out.reserve(vnodes_.size());
  for (const auto& [node, count] : vnodes_) out.push_back(node);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<PlacementStrategy> ConsistentHashRing::clone() const {
  return std::make_unique<ConsistentHashRing>(*this);
}

std::uint64_t ConsistentHashRing::key_position(std::string_view key) const {
  return hash::hash_key(config_.algorithm, key, config_.seed);
}

std::size_t ConsistentHashRing::successor(std::uint64_t key_hash) const {
  // First virtual position >= the key's position, wrapping to the ring's
  // first entry past the top of the circle.
  const auto it = std::lower_bound(positions_.begin(), positions_.end(),
                                   VirtualNode{key_hash, kInvalidNode},
                                   by_position);
  return it == positions_.end()
             ? 0
             : static_cast<std::size_t>(it - positions_.begin());
}

NodeId ConsistentHashRing::owner_of_hash(std::uint64_t key_hash) const {
  if (positions_.empty()) return kInvalidNode;
  return positions_[successor(key_hash)].node;
}

NodeId ConsistentHashRing::owner(std::string_view key) const {
  return owner_of_hash(key_position(key));
}

NodeId ConsistentHashRing::owner_of_hash_excluding(
    std::uint64_t key_hash,
    const std::function<bool(NodeId)>& excluded) const {
  if (positions_.empty()) return kInvalidNode;
  std::size_t i = successor(key_hash);
  // Clockwise walk skipping excluded nodes; bounded by one full lap.
  for (std::size_t steps = 0; steps < positions_.size(); ++steps) {
    if (!excluded(positions_[i].node)) return positions_[i].node;
    i = next(i);
  }
  return kInvalidNode;
}

std::vector<NodeId> ConsistentHashRing::owner_chain(std::string_view key,
                                                    std::size_t count) const {
  return owner_chain_of_hash(key_position(key), count);
}

std::vector<NodeId> ConsistentHashRing::owner_chain_of_hash(
    std::uint64_t key_hash, std::size_t count) const {
  std::vector<NodeId> chain;
  if (positions_.empty() || count == 0) return chain;
  const std::size_t want = std::min(count, vnodes_.size());
  chain.reserve(want);
  std::size_t i = successor(key_hash);
  // Walk clockwise collecting distinct physical nodes; bounded by ring size.
  for (std::size_t steps = 0; steps < positions_.size() && chain.size() < want;
       ++steps) {
    const NodeId node = positions_[i].node;
    if (std::find(chain.begin(), chain.end(), node) == chain.end()) {
      chain.push_back(node);
    }
    i = next(i);
  }
  return chain;
}

ConsistentHashRing::BoundedLookup ConsistentHashRing::owner_of_hash_bounded(
    std::uint64_t key_hash, std::size_t max_candidates,
    const std::function<bool(NodeId)>& excluded,
    const std::function<bool(NodeId)>& overloaded) const {
  BoundedLookup result;
  if (positions_.empty() || max_candidates == 0) return result;
  std::size_t i = successor(key_hash);
  // Clockwise walk over distinct non-excluded nodes, same order as
  // owner_chain; stop at the first candidate under its load bound.  A
  // small fixed-size seen set keeps the walk allocation-free for the
  // candidate counts in practice (<= primary + a few spills).
  NodeId seen[8];
  std::size_t seen_count = 0;
  const std::size_t want =
      max_candidates < sizeof(seen) / sizeof(seen[0])
          ? max_candidates
          : sizeof(seen) / sizeof(seen[0]);
  for (std::size_t steps = 0; steps < positions_.size() && seen_count < want;
       ++steps) {
    const NodeId node = positions_[i].node;
    i = next(i);
    if (excluded && excluded(node)) continue;
    if (std::find(seen, seen + seen_count, node) != seen + seen_count) {
      continue;
    }
    seen[seen_count++] = node;
    if (result.primary == kInvalidNode) result.primary = node;
    ++result.inspected;
    if (!overloaded || !overloaded(node)) {
      result.chosen = node;
      return result;
    }
  }
  // Every inspected candidate overloaded (or everything excluded): the
  // key stays with its primary — the bound degrades to plain lookup
  // rather than to an unstable choice.
  result.chosen = result.primary;
  return result;
}

std::uint64_t ConsistentHashRing::fingerprint() const {
  // The table is position-ordered, so the digest is a deterministic
  // function of the ring contents.
  std::uint64_t digest = 0x9E3779B97F4A7C15ULL;
  for (const VirtualNode& vnode : positions_) {
    digest = hash::fmix64(digest ^ vnode.position);
    digest = hash::fmix64(digest ^ vnode.node);
  }
  return digest;
}

std::string ConsistentHashRing::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "hash_ring nodes=%zu vnodes_per_node=%u seed=%llu "
                "positions=%zu fingerprint=%016llx",
                vnodes_.size(), config_.vnodes_per_node,
                static_cast<unsigned long long>(config_.seed),
                positions_.size(),
                static_cast<unsigned long long>(fingerprint()));
  return buf;
}

std::unordered_map<NodeId, double> ConsistentHashRing::arc_share() const {
  std::unordered_map<NodeId, double> share;
  if (positions_.empty()) return share;
  if (positions_.size() == 1) {
    share[positions_.front().node] = 1.0;
    return share;
  }
  constexpr double kCircle = 18446744073709551616.0;  // 2^64
  // The arc ending at a virtual position is owned by that position's node;
  // the first entry's arc wraps around from the last position (unsigned
  // subtraction gives the modular distance).
  std::uint64_t prev = positions_.back().position;
  for (const VirtualNode& vnode : positions_) {
    share[vnode.node] += static_cast<double>(vnode.position - prev) / kCircle;
    prev = vnode.position;
  }
  return share;
}

}  // namespace ftc::ring
