// Oracle tests: the runtime ring (a sorted vector of virtual positions)
// must agree with a brute-force reference on every lookup, across random
// membership mutations, and hold the same position table as the paper's
// std::map layout (MapHashRing).  The reference derives virtual-node
// positions the same way, probes collisions the same way, and answers
// every walk by sorting its positions by clockwise distance from the key —
// too slow for production, trivially correct by inspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "hash/murmur3.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "ring/map_hash_ring.hpp"

namespace ftc::ring {
namespace {

using Predicate = std::function<bool(NodeId)>;

/// Trivially-correct reference ring with the std::map ring's semantics:
/// an add probes a taken position upward in insertion order; a removal
/// erases the node's own positions and moves nothing else.
class ReferenceRing {
 public:
  ReferenceRing(std::uint32_t vnodes, std::uint64_t seed)
      : vnodes_(vnodes), seed_(seed) {}

  void add_node(NodeId node, double weight = 1.0) {
    if (vnode_count_of(node) > 0) return;
    const double scaled =
        std::clamp(weight * vnodes_ + 0.5, 1.0, double{1 << 20});
    const auto replicas = static_cast<std::uint32_t>(scaled);
    const std::uint64_t mixed =
        hash::fmix64(seed_ + 0x9E3779B97F4A7C15ULL);
    for (std::uint32_t r = 0; r < replicas; ++r) {
      const std::uint64_t packed =
          (static_cast<std::uint64_t>(node) << 32) | r;
      std::uint64_t pos = hash::fmix64(packed ^ mixed);
      while (std::any_of(positions_.begin(), positions_.end(),
                         [pos](const auto& p) { return p.first == pos; })) {
        ++pos;
      }
      positions_.emplace_back(pos, node);
    }
  }

  void remove_node(NodeId node) {
    std::erase_if(positions_,
                  [node](const auto& p) { return p.second == node; });
  }

  /// Owners of every position, nearest clockwise from `key_hash` first.
  [[nodiscard]] std::vector<NodeId> clockwise(std::uint64_t key_hash) const {
    auto order = positions_;
    // Unsigned subtraction is the clockwise distance on the 2^64 circle.
    std::sort(order.begin(), order.end(),
              [key_hash](const auto& a, const auto& b) {
                return a.first - key_hash < b.first - key_hash;
              });
    std::vector<NodeId> owners;
    for (const auto& p : order) owners.push_back(p.second);
    return owners;
  }

  [[nodiscard]] NodeId owner_of_hash(std::uint64_t key_hash) const {
    const auto order = clockwise(key_hash);
    return order.empty() ? kInvalidNode : order.front();
  }

  [[nodiscard]] NodeId owner_of_hash_excluding(
      std::uint64_t key_hash, const Predicate& excluded) const {
    for (const NodeId node : clockwise(key_hash)) {
      if (!excluded(node)) return node;
    }
    return kInvalidNode;
  }

  [[nodiscard]] std::vector<NodeId> owner_chain_of_hash(
      std::uint64_t key_hash, std::size_t count) const {
    std::vector<NodeId> chain;
    for (const NodeId node : clockwise(key_hash)) {
      if (chain.size() == count) break;
      if (std::find(chain.begin(), chain.end(), node) == chain.end()) {
        chain.push_back(node);
      }
    }
    return chain;
  }

  /// The bounded-load contract: the first of at most min(max, 8) distinct
  /// non-excluded candidates that is not overloaded, else the primary.
  [[nodiscard]] ConsistentHashRing::BoundedLookup owner_of_hash_bounded(
      std::uint64_t key_hash, std::size_t max_candidates,
      const Predicate& excluded, const Predicate& overloaded) const {
    ConsistentHashRing::BoundedLookup result;
    std::vector<NodeId> seen;
    const std::size_t want = std::min<std::size_t>(max_candidates, 8);
    for (const NodeId node : clockwise(key_hash)) {
      if (seen.size() == want) break;
      if (excluded(node) ||
          std::find(seen.begin(), seen.end(), node) != seen.end()) {
        continue;
      }
      seen.push_back(node);
      if (result.primary == kInvalidNode) result.primary = node;
      ++result.inspected;
      if (!overloaded(node)) {
        result.chosen = node;
        return result;
      }
    }
    result.chosen = result.primary;
    return result;
  }

  [[nodiscard]] std::size_t position_count() const {
    return positions_.size();
  }

  [[nodiscard]] std::size_t vnode_count_of(NodeId node) const {
    return static_cast<std::size_t>(
        std::count_if(positions_.begin(), positions_.end(),
                      [node](const auto& p) { return p.second == node; }));
  }

  /// Position-ordered (position, node) pairs.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, NodeId>> sorted() const {
    auto out = positions_;
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t digest = 0x9E3779B97F4A7C15ULL;
    for (const auto& [pos, node] : sorted()) {
      digest = hash::fmix64(digest ^ pos);
      digest = hash::fmix64(digest ^ node);
    }
    return digest;
  }

  /// Each node's share of the circle: the arc ending at a position
  /// belongs to that position's node.
  [[nodiscard]] std::unordered_map<NodeId, double> arc_share() const {
    std::unordered_map<NodeId, double> share;
    const auto table = sorted();
    if (table.size() == 1) share[table.front().second] = 1.0;
    if (table.size() < 2) return share;
    std::uint64_t prev = table.back().first;
    for (const auto& [pos, node] : table) {
      share[node] += static_cast<double>(pos - prev) / 18446744073709551616.0;
      prev = pos;
    }
    return share;
  }

 private:
  std::uint32_t vnodes_;
  std::uint64_t seed_;
  /// (position, node) in insertion order.
  std::vector<std::pair<std::uint64_t, NodeId>> positions_;
};

class RingOracle : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RingOracle, AgreesOnRandomLookupsUnderChurn) {
  const std::uint32_t vnodes = GetParam();
  RingConfig config;
  config.vnodes_per_node = vnodes;
  config.seed = 31337;
  ConsistentHashRing ring(config);
  ReferenceRing reference(vnodes, config.seed);

  Rng rng(2024);
  std::vector<NodeId> members;
  for (int round = 0; round < 40; ++round) {
    // Random membership mutation.
    const bool add = members.empty() || members.size() < 3 || rng.chance(0.5);
    if (add) {
      const auto node = static_cast<NodeId>(rng.below(64));
      ring.add_node(node);
      reference.add_node(node);
      if (std::find(members.begin(), members.end(), node) == members.end()) {
        members.push_back(node);
      }
    } else {
      const NodeId node = members[rng.below(members.size())];
      ring.remove_node(node);
      reference.remove_node(node);
      members.erase(std::find(members.begin(), members.end(), node));
    }
    // Cross-check a batch of random lookups.
    for (int q = 0; q < 50; ++q) {
      const std::uint64_t h = rng();
      ASSERT_EQ(ring.owner_of_hash(h), reference.owner_of_hash(h))
          << "round " << round << " hash " << h;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(VnodeCounts, RingOracle,
                         ::testing::Values<std::uint32_t>(1, 3, 10, 50),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "v" + std::to_string(i.param);
                         });

TEST(RingOracleExcluding, MatchesRemoveThenLookup) {
  // owner_of_hash_excluding(h, dead) must equal a physically-mutated
  // ring's owner_of_hash(h) for the same dead set.
  RingConfig config;
  config.vnodes_per_node = 25;
  ConsistentHashRing full(16, config);
  ConsistentHashRing mutated(16, config);
  const std::vector<NodeId> dead = {2, 7, 11};
  for (const NodeId d : dead) mutated.remove_node(d);
  auto is_dead = [&dead](NodeId n) {
    return std::find(dead.begin(), dead.end(), n) != dead.end();
  };
  Rng rng(5);
  for (int q = 0; q < 2000; ++q) {
    const std::uint64_t h = rng();
    ASSERT_EQ(full.owner_of_hash_excluding(h, is_dead),
              mutated.owner_of_hash(h))
        << h;
  }
}

TEST(RingOracleExcluding, AllExcludedGivesInvalid) {
  RingConfig config;
  config.vnodes_per_node = 5;
  ConsistentHashRing ring(4, config);
  EXPECT_EQ(ring.owner_of_hash_excluding(123, [](NodeId) { return true; }),
            kInvalidNode);
}

/// Runtime ring vs MapHashRing vs ReferenceRing over one random history
/// of adds, weighted adds, removes and re-adds.
class RingDifferential : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void expect_agreement(const ConsistentHashRing& ring,
                        const MapHashRing& map_ring,
                        const ReferenceRing& reference, Rng& rng) {
    // The whole state: the same (position, node) table in all three.
    const auto table = reference.sorted();
    ASSERT_EQ(ring.position_count(), reference.position_count());
    ASSERT_EQ(map_ring.positions().size(), table.size());
    auto map_it = map_ring.positions().begin();
    for (std::size_t i = 0; i < table.size(); ++i, ++map_it) {
      ASSERT_EQ(ring.positions()[i].position, table[i].first);
      ASSERT_EQ(ring.positions()[i].node, table[i].second);
      ASSERT_EQ(map_it->first, table[i].first);
      ASSERT_EQ(map_it->second, table[i].second);
    }
    EXPECT_EQ(ring.fingerprint(), reference.fingerprint());
    for (NodeId node = 0; node < kNodeIds; ++node) {
      EXPECT_EQ(ring.vnode_count_of(node), reference.vnode_count_of(node));
    }
    EXPECT_EQ(ring.arc_share(), reference.arc_share());

    for (int q = 0; q < 6; ++q) {
      const std::uint64_t h = q == 0 ? ~std::uint64_t{0} : rng();
      const auto salt = static_cast<NodeId>(rng.below(5));
      const Predicate excluded = [salt](NodeId n) { return n % 5 == salt; };
      const Predicate overloaded = [salt](NodeId n) {
        return (n * 7 + salt) % 3 == 0;
      };
      const std::size_t count = rng.below(5);
      const std::size_t max_candidates = rng.below(11);
      EXPECT_EQ(ring.owner_of_hash(h), reference.owner_of_hash(h));
      EXPECT_EQ(map_ring.owner_of_hash(h), reference.owner_of_hash(h));
      EXPECT_EQ(ring.owner_of_hash_excluding(h, excluded),
                reference.owner_of_hash_excluding(h, excluded));
      EXPECT_EQ(ring.owner_chain_of_hash(h, count),
                reference.owner_chain_of_hash(h, count));
      const auto got =
          ring.owner_of_hash_bounded(h, max_candidates, excluded, overloaded);
      const auto want = reference.owner_of_hash_bounded(h, max_candidates,
                                                        excluded, overloaded);
      EXPECT_EQ(got.chosen, want.chosen);
      EXPECT_EQ(got.primary, want.primary);
      EXPECT_EQ(got.inspected, want.inspected);
    }
    const std::string key = "/lustre/orion/cosmoUniverse/file_" +
                            std::to_string(rng.below(4096)) + ".tfrecord";
    EXPECT_EQ(ring.owner(key), map_ring.owner(key));
  }

  static constexpr NodeId kNodeIds = 24;
};

TEST_P(RingDifferential, RandomHistoriesAgree) {
  RingConfig config;
  config.vnodes_per_node = GetParam();
  config.seed = 4242;
  ConsistentHashRing ring(config);
  MapHashRing map_ring(config);
  ReferenceRing reference(config.vnodes_per_node, config.seed);

  constexpr double kWeights[] = {0.0, 0.25, 0.5, 1.5, 2.0, 3.0};
  Rng rng(GetParam() * 7919 + 1);
  std::unordered_map<NodeId, double> removed;  // node -> weight it had
  std::vector<NodeId> members;
  for (int step = 0; step < 200; ++step) {
    const double dice = rng.uniform();
    if (members.size() < 2 || dice < 0.3) {
      // Add: sometimes an id already present (a no-op everywhere).
      const auto node = static_cast<NodeId>(rng.below(kNodeIds));
      ring.add_node(node);
      map_ring.add_node(node);
      reference.add_node(node);
      if (std::find(members.begin(), members.end(), node) == members.end()) {
        members.push_back(node);
        removed.erase(node);
      }
    } else if (dice < 0.5) {
      const auto node = static_cast<NodeId>(rng.below(kNodeIds));
      const double weight = kWeights[rng.below(std::size(kWeights))];
      ring.add_node_weighted(node, weight);
      map_ring.add_node_weighted(node, weight);
      reference.add_node(node, weight);
      if (std::find(members.begin(), members.end(), node) == members.end()) {
        members.push_back(node);
        removed.erase(node);
      }
    } else if (dice < 0.8 || removed.empty()) {
      const std::size_t pick = rng.below(members.size());
      const NodeId node = members[pick];
      removed[node] = static_cast<double>(ring.vnode_count_of(node)) /
                      config.vnodes_per_node;
      ring.remove_node(node);
      map_ring.remove_node(node);
      reference.remove_node(node);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Re-add a removed node with its old weight.
      auto it = removed.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(removed.size())));
      const auto [node, weight] = *it;
      removed.erase(it);
      ring.add_node_weighted(node, weight);
      map_ring.add_node_weighted(node, weight);
      reference.add_node(node, weight);
      members.push_back(node);
    }
    ASSERT_EQ(ring.node_count(), members.size()) << "step " << step;
    expect_agreement(ring, map_ring, reference, rng);
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(VnodeCounts, RingDifferential,
                         ::testing::Values<std::uint32_t>(1, 3, 10, 100),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "v" + std::to_string(i.param);
                         });

TEST(RingBatchAdd, MatchesOneAtATime) {
  RingConfig config;
  config.vnodes_per_node = 50;
  config.seed = 9;
  ConsistentHashRing one_at_a_time(config);
  one_at_a_time.add_node_weighted(7, 2.0);
  one_at_a_time.add_node(3);
  one_at_a_time.add_node_weighted(11, 0.5);
  ConsistentHashRing batch(config);
  // The repeated 3 is a no-op, as a second add_node(3) would be.
  batch.add_nodes({7, 3, 11, 3}, {2.0, 1.0, 0.5});
  EXPECT_EQ(batch.fingerprint(), one_at_a_time.fingerprint());
  EXPECT_EQ(batch.nodes(), one_at_a_time.nodes());
  EXPECT_EQ(batch.vnode_count_of(11), 25u);
  const MapHashRing map_ring(64, config);
  const ConsistentHashRing built(64, config);
  EXPECT_TRUE(std::equal(
      built.positions().begin(), built.positions().end(),
      map_ring.positions().begin(), map_ring.positions().end(),
      [](const ConsistentHashRing::VirtualNode& v, const auto& entry) {
        return v.position == entry.first && v.node == entry.second;
      }));
}

}  // namespace
}  // namespace ftc::ring
