// Golden placement: pins string -> owner and string -> replica chain for
// the DES's dataset paths on fixed rings, start to end (key hash, virtual
// positions, clockwise walk).  The constants were captured from the
// std::map ring the paper describes; any change to hashing, position
// derivation, collision probing or the walk order changes a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "hash/murmur3.hpp"
#include "ring/consistent_hash_ring.hpp"

namespace ftc::ring {
namespace {

/// 64-bit digest of owner(path) and owner_chain(path, 3) over 4096
/// `/lustre/orion/cosmoUniverse/file_<i>.tfrecord` paths.
std::uint64_t placement_digest(const ConsistentHashRing& ring) {
  std::uint64_t digest = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 4096; ++i) {
    const std::string path = "/lustre/orion/cosmoUniverse/file_" +
                             std::to_string(i) + ".tfrecord";
    digest = hash::fmix64(digest ^ ring.owner(path));
    for (const NodeId node : ring.owner_chain(path, 3)) {
      digest = hash::fmix64(digest + node + 1);
    }
  }
  return digest;
}

RingConfig config_with(std::uint32_t vnodes, std::uint64_t seed) {
  RingConfig config;
  config.vnodes_per_node = vnodes;
  config.seed = seed;
  return config;
}

struct Golden {
  std::uint64_t built;
  std::uint64_t removed;
  std::uint64_t readded;
};

/// Checks the digest of `ring` as built, after removing `victim`, and
/// after re-adding it with `weight`.
void expect_golden(ConsistentHashRing ring, NodeId victim, double weight,
                   const Golden& golden) {
  EXPECT_EQ(placement_digest(ring), golden.built);
  ring.remove_node(victim);
  EXPECT_EQ(placement_digest(ring), golden.removed);
  ring.add_node_weighted(victim, weight);
  EXPECT_EQ(placement_digest(ring), golden.readded);
}

TEST(RingGolden, FourNodesSeedZero) {
  expect_golden(ConsistentHashRing(4, config_with(100, 0)), 2, 1.0,
                {0xf2892a24d28ad3e6ULL, 0x960246053a9bb2e3ULL,
                 0xf2892a24d28ad3e6ULL});
}

TEST(RingGolden, SixtyFourNodesSeedSeven) {
  expect_golden(ConsistentHashRing(64, config_with(100, 7)), 17, 1.0,
                {0x526a7ede2ea5d8abULL, 0xca887e2ba58c4fb0ULL,
                 0x526a7ede2ea5d8abULL});
}

TEST(RingGolden, WeightedEightNodes) {
  constexpr double kWeights[8] = {1.0, 2.0, 0.5, 1.5, 1.0, 3.0, 0.75, 1.25};
  ConsistentHashRing ring(config_with(100, 3));
  for (NodeId node = 0; node < 8; ++node) {
    ring.add_node_weighted(node, kWeights[node]);
  }
  expect_golden(ring, 5, kWeights[5],
                {0xcd69fd76eb676f40ULL, 0xe56e4f1147d81080ULL,
                 0xcd69fd76eb676f40ULL});
}

}  // namespace
}  // namespace ftc::ring
