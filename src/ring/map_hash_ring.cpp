#include "ring/map_hash_ring.hpp"

namespace ftc::ring {

MapHashRing::MapHashRing(RingConfig config) : config_(config) {
  if (config_.vnodes_per_node == 0) config_.vnodes_per_node = 1;
}

MapHashRing::MapHashRing(std::uint32_t node_count, RingConfig config)
    : MapHashRing(config) {
  for (NodeId n = 0; n < node_count; ++n) add_node(n);
}

void MapHashRing::add_node_weighted(NodeId node, double weight) {
  if (node_positions_.contains(node)) return;
  const std::uint32_t replicas = vnodes_for_weight(config_, weight);
  std::vector<std::uint64_t>& positions = node_positions_[node];
  positions.reserve(replicas);
  for (std::uint32_t r = 0; r < replicas; ++r) {
    std::uint64_t pos = vnode_position(config_, node, r);
    // Linear probe on a collision with a taken position; never drop a
    // replica.
    while (!ring_.try_emplace(pos, node).second) ++pos;
    positions.push_back(pos);
  }
}

void MapHashRing::remove_node(NodeId node) {
  const auto it = node_positions_.find(node);
  if (it == node_positions_.end()) return;
  for (std::uint64_t pos : it->second) ring_.erase(pos);
  node_positions_.erase(it);
}

NodeId MapHashRing::owner_of_hash(std::uint64_t key_hash) const {
  if (ring_.empty()) return kInvalidNode;
  auto it = ring_.lower_bound(key_hash);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

NodeId MapHashRing::owner(std::string_view key) const {
  return owner_of_hash(hash::hash_key(config_.algorithm, key, config_.seed));
}

}  // namespace ftc::ring
