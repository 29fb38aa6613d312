// map_hash_ring.hpp - The paper's std::map hash ring, kept as a baseline.
//
// Sec IV-B: "We implemented Hash ring with the std::map class from C++
// STL"; lower_bound gives the clockwise successor in O(log(V*N)).
// ConsistentHashRing holds the same (position, node) pairs in a sorted
// vector and serves every runtime caller.  This class stays only so the
// A2 and A4 ablations can time the paper's layout (bench_micro_hashring,
// bench_ablation_vnode_cost) and the differential test can check that both
// layouts place every key identically.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ring/consistent_hash_ring.hpp"

namespace ftc::ring {

class MapHashRing {
 public:
  explicit MapHashRing(RingConfig config = {});
  /// Ring over nodes {0..node_count-1}, added one at a time.
  MapHashRing(std::uint32_t node_count, RingConfig config);

  void add_node(NodeId node) { add_node_weighted(node, 1.0); }
  /// round(weight * vnodes_per_node) positions, as ConsistentHashRing.
  void add_node_weighted(NodeId node, double weight);
  void remove_node(NodeId node);

  [[nodiscard]] NodeId owner(std::string_view key) const;
  [[nodiscard]] NodeId owner_of_hash(std::uint64_t key_hash) const;

  /// position -> physical node; the clockwise order is ascending keys
  /// with wrap-around at 2^64.
  [[nodiscard]] const std::map<std::uint64_t, NodeId>& positions() const {
    return ring_;
  }

 private:
  RingConfig config_;
  std::map<std::uint64_t, NodeId> ring_;
  /// node -> its virtual positions (for O(V log) removal).
  std::unordered_map<NodeId, std::vector<std::uint64_t>> node_positions_;
};

}  // namespace ftc::ring
