// consistent_hash_ring.hpp - The paper's core contribution (Sec IV-B).
//
// Consistent hashing on a 64-bit circle: every physical node is inserted at
// V virtual positions; a key is owned by the first virtual node clockwise
// from the key's hash.  The paper stores the ring in an ordered tree map
// (MapHashRing keeps that layout as the A2 baseline); this ring keeps the
// same (position, node) pairs in a vector sorted by position, so the
// clockwise successor is a binary search over contiguous memory and a
// snapshot copy is one flat vector copy.  Placement is the map ring's bit
// for bit, collision probe included; the RingGolden and RingDifferential
// tests pin the agreement.
//
// Failure handling: remove_node erases only the failed node's V positions.
// Every key previously owned by the failed node falls to the next clockwise
// virtual node — the theoretical minimum reassignment — while all other
// keys keep their owners (the property the movement-analysis tests assert).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hash/hash.hpp"
#include "ring/placement.hpp"

namespace ftc::ring {

struct RingConfig {
  /// Virtual nodes per physical node.  The paper sweeps 10..1000 (Fig 6b)
  /// and uses 100 in production runs.
  std::uint32_t vnodes_per_node = 100;

  /// Hash used for both virtual-node positions and keys.
  hash::Algorithm algorithm = hash::Algorithm::kMurmur3_64;

  /// Ring-instance seed: clients of one job must agree on it so they build
  /// identical rings independently (the paper's clients construct the ring
  /// locally at init; no coordination service exists).
  std::uint64_t seed = 0;
};

/// Ring position of virtual replica `replica` of `node`, before collision
/// probing.  Integer mixing instead of hashing a formatted string:
/// equivalent avalanche quality, no allocation.  The seed decorrelates
/// independent rings (e.g. different jobs sharing nodes).
[[nodiscard]] std::uint64_t vnode_position(const RingConfig& config,
                                           NodeId node,
                                           std::uint32_t replica);

/// Virtual positions for a node of capacity `weight`:
/// round(weight * vnodes_per_node), clamped to [1, 2^20] so negative or
/// huge weights cannot wrap.
[[nodiscard]] std::uint32_t vnodes_for_weight(const RingConfig& config,
                                              double weight);

class ConsistentHashRing final : public PlacementStrategy {
 public:
  /// One virtual position and its physical owner.
  struct VirtualNode {
    std::uint64_t position;
    NodeId node;
  };

  explicit ConsistentHashRing(RingConfig config = {});

  /// Convenience: ring over nodes {0..node_count-1}.
  ConsistentHashRing(std::uint32_t node_count, RingConfig config);

  [[nodiscard]] std::string_view name() const override { return "hash_ring"; }
  [[nodiscard]] NodeId owner(std::string_view key) const override;
  void add_node(NodeId node) override;

  /// Adds a node with a capacity weight: it receives
  /// round(weight * vnodes_per_node) virtual positions and therefore
  /// ~weight x the average key share.  Supports heterogeneous NVMe sizes
  /// (e.g. the 2.9-3.5 TB mix of the KISTI Neuron nodes in the artifact).
  /// Weight <= 0 is clamped to one virtual position.
  void add_node_weighted(NodeId node, double weight);

  /// Same ring as add_node_weighted(nodes[i], weights[i]) for each i in
  /// order (weight 1 past the end of `weights`), built with one merge
  /// instead of one per node.
  void add_nodes(const std::vector<NodeId>& nodes,
                 const std::vector<double>& weights = {});

  /// Virtual positions currently owned by `node` (0 when absent).
  [[nodiscard]] std::size_t vnode_count_of(NodeId node) const;
  void remove_node(NodeId node) override;
  [[nodiscard]] bool contains(NodeId node) const override;
  [[nodiscard]] std::vector<NodeId> nodes() const override;
  [[nodiscard]] std::size_t node_count() const override {
    return vnodes_.size();
  }
  [[nodiscard]] std::unique_ptr<PlacementStrategy> clone() const override;

  /// Owner for an already-computed key hash (saves re-hashing when the
  /// caller caches hashes, as HvacClient does).
  [[nodiscard]] NodeId owner_of_hash(std::uint64_t key_hash) const;

  /// Owner lookup that skips nodes for which `excluded` returns true —
  /// the per-client failure view used by the DES substrate, where every
  /// client flags failures at its own pace but all share one physical
  /// ring.  Equivalent to remove_node on a per-client copy, without the
  /// per-client memory.  Returns kInvalidNode when everything is excluded.
  [[nodiscard]] NodeId owner_of_hash_excluding(
      std::uint64_t key_hash,
      const std::function<bool(NodeId)>& excluded) const;

  /// Position on the ring for a key (the value looked up clockwise).
  [[nodiscard]] std::uint64_t key_position(std::string_view key) const;

  /// The first `count` distinct physical nodes clockwise from the key —
  /// the replica chain used by the replication extension.  Fewer than
  /// `count` entries when membership is smaller.
  [[nodiscard]] std::vector<NodeId> owner_chain(std::string_view key,
                                                std::size_t count) const;

  /// owner_chain for a precomputed key hash (DES hot path).
  [[nodiscard]] std::vector<NodeId> owner_chain_of_hash(
      std::uint64_t key_hash, std::size_t count) const;

  /// Result of a bounded-load lookup: the node the key actually routes
  /// to, the primary it would have routed to under plain lookup, and how
  /// many distinct candidates the walk inspected (1 = no spill).
  struct BoundedLookup {
    NodeId chosen = kInvalidNode;
    NodeId primary = kInvalidNode;
    std::uint32_t inspected = 0;
    [[nodiscard]] bool spilled() const { return chosen != primary; }
  };

  /// Consistent hashing with bounded loads (the Envoy ring-hash spill
  /// idiom): walks distinct non-excluded physical nodes clockwise from
  /// the key — the same order as owner_chain — and routes to the first
  /// one `overloaded` clears.  Inspects at most `max_candidates` distinct
  /// nodes; when every one of them is overloaded the key stays with the
  /// primary, so correctness never depends on the load signal and two
  /// clients sharing a ring epoch and load view resolve identically.
  /// chosen == kInvalidNode when every node is excluded.
  [[nodiscard]] BoundedLookup owner_of_hash_bounded(
      std::uint64_t key_hash, std::size_t max_candidates,
      const std::function<bool(NodeId)>& excluded,
      const std::function<bool(NodeId)>& overloaded) const;

  /// Total virtual positions currently on the ring (the sum of every
  /// member's vnode count: collisions are probed, never dropped).
  [[nodiscard]] std::size_t position_count() const {
    return positions_.size();
  }

  /// Every virtual position, ascending; the clockwise order is ascending
  /// positions with wrap-around at 2^64.
  [[nodiscard]] const std::vector<VirtualNode>& positions() const {
    return positions_;
  }

  /// Fraction of the 2^64 circle owned by each alive node.  Sums to 1.
  /// Used by balance tests: with V=100 the max/mean arc share stays within
  /// a small factor of 1.
  [[nodiscard]] std::unordered_map<NodeId, double> arc_share() const;

  [[nodiscard]] const RingConfig& config() const { return config_; }

  /// Order-independent 64-bit digest of the full ring state (every
  /// virtual position and its owner).  The paper's clients build their
  /// rings independently with no coordination service; comparing
  /// fingerprints is the cheap way to assert they agree (same seed, same
  /// membership) before a job starts.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Human-readable snapshot ("hash_ring nodes=4 vnodes=100 seed=7
  /// positions=400 fingerprint=..."), for logs and debugging.
  [[nodiscard]] std::string describe() const;

 private:
  /// Index of the clockwise successor of `key_hash` (ring non-empty).
  [[nodiscard]] std::size_t successor(std::uint64_t key_hash) const;
  [[nodiscard]] std::size_t next(std::size_t index) const {
    return index + 1 == positions_.size() ? 0 : index + 1;
  }

  RingConfig config_;
  std::vector<VirtualNode> positions_;  ///< ascending by position
  std::unordered_map<NodeId, std::uint32_t> vnodes_;  ///< node -> its count
};

}  // namespace ftc::ring
