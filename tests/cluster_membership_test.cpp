// Cluster integration of the membership service: default-off legacy
// behaviour, cluster-wide failure convergence, the stale-view replica
// regression (a stale client must not push replicas to a confirmed-failed
// node), elastic scale-up sync, kill/restore reinstatement, and golden
// client placement with and without an agent.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "hash/murmur3.hpp"
#include "membership/swim.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig membership_config(std::uint32_t nodes) {
  ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 50ms;
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 64 << 20;
  config.membership.enabled = true;
  // Manual clock: tests drive tick_membership() so protocol progress is
  // bounded by explicit rounds, not a background thread's schedule.
  config.membership.background = false;
  config.membership.probe_period = 10ms;
  config.membership.probe_timeout = 25ms;
  config.membership.indirect_timeout = 60ms;
  config.membership.suspicion_periods = 3;
  config.membership.seed = 5;
  return config;
}

/// Ticks the cluster's agents until `done`, or fails after `max_rounds`.
std::optional<int> tick_until(Cluster& cluster,
                              const std::function<bool()>& done,
                              int max_rounds = 600) {
  for (int round = 0; round < max_rounds; ++round) {
    if (done()) return round;
    cluster.tick_membership();
    std::this_thread::sleep_for(2ms);
  }
  return done() ? std::optional<int>(max_rounds) : std::nullopt;
}

/// All agents outside `failed` agree: serving set, epoch, fingerprint.
bool agents_converged(Cluster& cluster, const std::vector<NodeId>& failed) {
  auto is_failed = [&](NodeId n) {
    return std::find(failed.begin(), failed.end(), n) != failed.end();
  };
  std::optional<std::uint64_t> epoch;
  std::optional<std::uint64_t> fingerprint;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (is_failed(n)) continue;
    auto& agent = cluster.membership(n);
    const auto view = agent.ring_view();
    for (NodeId m = 0; m < cluster.node_count(); ++m) {
      const bool should_serve = !is_failed(m);
      if (view->contains(m) != should_serve) return false;
      if (should_serve &&
          agent.member_state(m) != membership::MemberState::kAlive) {
        return false;
      }
    }
    if (epoch && *epoch != view->epoch()) return false;
    if (fingerprint && *fingerprint != view->fingerprint()) return false;
    epoch = view->epoch();
    fingerprint = view->fingerprint();
  }
  return true;
}

TEST(ClusterMembership, DefaultOffPreservesLegacyDetection) {
  ClusterConfig config;
  config.node_count = 4;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 50ms;
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.server.async_data_mover = false;
  ASSERT_FALSE(config.membership.enabled);

  Cluster cluster(config);
  EXPECT_FALSE(cluster.membership_enabled());

  const auto paths = cluster.stage_dataset(32, 64);
  cluster.warm_caches(paths);
  cluster.fail_node(1);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
  // The seed's client-local machinery did the work...
  const auto stats = cluster.client(0).stats_snapshot();
  EXPECT_GE(stats.nodes_flagged, 1u);
  EXPECT_GE(stats.ring_updates, 1u);
  // ...and nothing membership-flavored ever ran.
  EXPECT_EQ(stats.suspicions_reported, 0u);
  EXPECT_EQ(stats.stale_view_hints, 0u);
  EXPECT_EQ(stats.epoch_fast_forwards, 0u);
}

TEST(ClusterMembership, EightClientsConvergeOnOneKill) {
  // The acceptance scenario: 8 nodes, one killed; every agent must land
  // on the same ring epoch within a bounded number of protocol rounds,
  // after which NO client sends anything to the dead node.
  Cluster cluster(membership_config(8));
  ASSERT_TRUE(cluster.membership_enabled());
  const auto paths = cluster.stage_dataset(64, 64);
  cluster.warm_caches(paths);

  const NodeId victim = 5;
  cluster.fail_node(victim);

  const auto rounds = tick_until(cluster, [&] {
    return agents_converged(cluster, {victim});
  });
  ASSERT_TRUE(rounds.has_value()) << "agents did not converge";

  // Membership stats surface the protocol's work (satellite: stats).
  std::uint64_t probes = 0, confirms = 0, suspicions = 0, claims = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (n == victim) continue;
    const auto stats = cluster.membership(n).stats_snapshot();
    probes += stats.probes_sent;
    confirms += stats.confirms;
    suspicions += stats.suspicions;
    claims += stats.gossip_claims_sent;
    EXPECT_EQ(stats.members_failed, 1u);
    EXPECT_GE(stats.epoch, 1u);
  }
  EXPECT_GE(probes, 1u);
  EXPECT_GE(confirms, 1u);
  EXPECT_GE(suspicions, 1u);
  EXPECT_GE(claims, 1u);

  // Post-convergence reads never touch the dead node.  Quiesce the async
  // pool first: protocol errands already in flight at convergence time
  // (nested ping-req pings aimed at the victim) still enqueue on its
  // endpoint and would show up in `received`.
  cluster.transport().drain_async();
  const auto victim_traffic = cluster.transport().stats(victim).received;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (n == victim) continue;
    for (std::size_t i = n; i < paths.size(); i += cluster.node_count()) {
      ASSERT_TRUE(cluster.client(n).read_file(paths[i]).is_ok()) << paths[i];
    }
  }
  cluster.transport().drain_async();
  EXPECT_EQ(cluster.transport().stats(victim).received, victim_traffic);
}

// Satellite regression: a client holding a stale (pre-failure) ring view
// reads through a live primary, is fast-forwarded by the kStaleView
// hint on that very response, and therefore never pushes a replica to
// the node the cluster already confirmed failed.
TEST(ClusterMembership, StaleClientCannotPushReplicasToConfirmedFailedNode) {
  ClusterConfig config = membership_config(5);
  config.client.replication.factor = 2;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(256, 64);

  // A standalone client+agent pair modelling a process on node 0 that has
  // not heard any gossip (its agent is not an RPC endpoint, so it learns
  // only from responses to its own requests).
  std::vector<NodeId> members{0, 1, 2, 3, 4};
  ring::RingConfig ring_config;
  ring_config.vnodes_per_node = config.client.vnodes_per_node;
  ring_config.seed = config.client.ring_seed;
  membership::MembershipAgent stale_agent(0, cluster.transport(),
                                          config.membership, ring_config,
                                          members);
  HvacClient stale_client(0, cluster.transport(), cluster.pfs(), members,
                          config.client);
  stale_client.attach_membership(&stale_agent);

  const NodeId victim = 3;
  cluster.fail_node(victim);
  ASSERT_TRUE(tick_until(cluster, [&] {
                return agents_converged(cluster, {victim});
              }).has_value());

  // The standalone client is still at epoch 0 and would place a backup
  // on the victim.
  ASSERT_EQ(stale_agent.epoch(), 0u);
  const auto stale_view = stale_agent.ring_view();
  ASSERT_TRUE(stale_view->contains(victim));
  std::string trap_path;
  for (const auto& path : paths) {
    const auto chain = stale_view->owner_chain(path, 2);
    if (chain.size() == 2 && chain[0] != victim && chain[1] == victim) {
      trap_path = path;
      break;
    }
  }
  ASSERT_FALSE(trap_path.empty()) << "no path with victim as backup";

  cluster.transport().drain_async();  // flush in-flight protocol errands
  const auto victim_traffic = cluster.transport().stats(victim).received;
  auto result = stale_client.read_file(trap_path);
  ASSERT_TRUE(result.is_ok());

  // The primary's response carried the fast-forward; the replica push
  // that followed it used the new view.
  cluster.transport().drain_async();
  EXPECT_EQ(cluster.transport().stats(victim).received, victim_traffic);
  EXPECT_GE(stale_agent.epoch(), 1u);
  EXPECT_FALSE(stale_agent.ring_view()->contains(victim));
  const auto stats = stale_client.stats_snapshot();
  EXPECT_GE(stats.stale_view_hints, 1u);
  EXPECT_GE(stats.epoch_fast_forwards, 1u);
  // The backup still got placed — on a live node.
  EXPECT_GE(stats.replicas_pushed, 1u);
}

TEST(ClusterMembership, AddNodeSyncsJoinerToClusterState) {
  Cluster cluster(membership_config(4));
  const auto paths = cluster.stage_dataset(32, 64);
  cluster.warm_caches(paths);

  // Make the cluster state non-trivial before the join: node 2 is dead
  // and confirmed, so the joiner's seeded assumption (everyone below me
  // serves) is wrong and must be corrected by the kMembershipSync pull.
  cluster.fail_node(2);
  ASSERT_TRUE(tick_until(cluster, [&] {
                return agents_converged(cluster, {2});
              }).has_value());

  const NodeId joiner = cluster.add_node();
  ASSERT_EQ(joiner, 4u);
  // The sync pull already taught the joiner about the dead node.
  EXPECT_FALSE(cluster.membership(joiner).ring_view()->contains(2));

  // Join claims propagate; everyone converges on the 4-member set
  // {0, 1, 3, 4} under one epoch.
  const auto rounds = tick_until(cluster, [&] {
    return agents_converged(cluster, {2});
  });
  ASSERT_TRUE(rounds.has_value()) << "join did not converge";
  for (const NodeId n : {0u, 1u, 3u, 4u}) {
    const auto view = cluster.membership(n).ring_view();
    EXPECT_TRUE(view->contains(joiner));
    EXPECT_EQ(view->node_count(), 4u);
  }
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
}

TEST(ClusterMembership, RestoredNodeIsReinstatedClusterWide) {
  Cluster cluster(membership_config(4));
  const auto paths = cluster.stage_dataset(48, 64);
  cluster.warm_caches(paths);

  const NodeId victim = 1;
  cluster.fail_node(victim);

  // Client 0 trips over the dead node first (local evidence becomes a
  // gossiped suspicion, not private ring surgery).
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
  EXPECT_GE(cluster.client(0).stats_snapshot().suspicions_reported, 1u);
  EXPECT_EQ(cluster.client(0).stats_snapshot().ring_updates, 0u);

  ASSERT_TRUE(tick_until(cluster, [&] {
                return agents_converged(cluster, {victim});
              }).has_value());

  // SLURM hands the node back, NVMe wiped.  Its refutation propagates
  // and every agent reinstates it.
  cluster.restore_node(victim, /*lose_cache=*/true);
  const auto rounds = tick_until(cluster, [&] {
    return agents_converged(cluster, {});
  });
  ASSERT_TRUE(rounds.has_value()) << "reinstatement did not converge";

  // The reinstated node owns its old arc again and recaches on first
  // touch — including for the client whose own detector flagged it.
  bool victim_serves_again = false;
  for (const auto& path : paths) {
    if (cluster.client(0).current_owner(path) == victim) {
      victim_serves_again = true;
      ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
    }
  }
  EXPECT_TRUE(victim_serves_again);
  EXPECT_GT(cluster.server(victim).cached_file_count(), 0u);

  std::uint64_t reinstatements = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    reinstatements += cluster.membership(n).stats_snapshot().reinstatements;
  }
  EXPECT_GE(reinstatements, 1u);
}

TEST(ClusterMembership, BackgroundSchedulerDrivesConvergence) {
  // Same kill scenario, but the GossipScheduler thread does the ticking.
  ClusterConfig config = membership_config(4);
  config.membership.background = true;
  Cluster cluster(config);

  cluster.fail_node(2);
  bool converged = false;
  for (int i = 0; i < 600 && !converged; ++i) {
    converged = agents_converged(cluster, {2});
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(converged) << "background scheduler did not converge";
}

TEST(ClusterMembership, InvalidSwimConfigIsRejected) {
  ClusterConfig config = membership_config(3);
  config.membership.suspicion_periods = 0;
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Client-level golden placement: which owner every client resolves, in
// the states that move a client's placement (local flag, probe
// reinstatement, elastic join, membership convergence).  RingGolden pins
// the ring class; this pins which ring each client reads.
// ---------------------------------------------------------------------------

/// 64-bit digest of current_owner(path) of clients [0, clients) over 4096
/// `/lustre/orion/cosmoUniverse/file_<i>.tfrecord` paths.
std::uint64_t client_owner_digest(Cluster& cluster, NodeId clients) {
  std::uint64_t digest = 0x9E3779B97F4A7C15ULL;
  for (NodeId c = 0; c < clients; ++c) {
    for (int i = 0; i < 4096; ++i) {
      const std::string path = "/lustre/orion/cosmoUniverse/file_" +
                               std::to_string(i) + ".tfrecord";
      digest = hash::fmix64(digest ^ (cluster.client(c).current_owner(path) +
                                      (std::uint64_t{c} << 32)));
    }
  }
  return digest;
}

ClusterConfig golden_config(FtMode mode) {
  ClusterConfig config;
  config.node_count = 4;
  config.client.mode = mode;
  config.client.rpc_timeout = 20ms;
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 100;
  config.client.probe_backoff = 2ms;
  config.client.probe_backoff_cap = 10ms;
  config.server.async_data_mover = false;
  return config;
}

/// Kills `victim` and reads one of its files through client 0 until the
/// client's detector takes it out of service.
void flag_by_timeouts(Cluster& cluster, NodeId victim,
                      const std::vector<std::string>& paths) {
  cluster.fail_node(victim);
  for (const auto& path : paths) {
    if (cluster.client(0).node_failed(victim)) return;
    if (cluster.client(0).current_owner(path) != victim) continue;
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
  ASSERT_TRUE(cluster.client(0).node_failed(victim));
}

constexpr std::uint64_t kGoldenHealthy = 0x93de71ea9aee4db2ULL;
constexpr std::uint64_t kGoldenFlagged = 0xf20edc4c6e6b2c17ULL;
constexpr std::uint64_t kGoldenJoined = 0xf7e1e23cdd1e1109ULL;
constexpr std::uint64_t kGoldenConverged = 0xff870282042e11f2ULL;
constexpr std::uint64_t kGoldenModulo = 0x08105ba1459e1270ULL;
constexpr std::uint64_t kGoldenModuloJoined = 0x2c1c9616a81e5a66ULL;

TEST(ClientPlacementGolden, LocalDetectorCrashStop) {
  ClusterConfig config = golden_config(FtMode::kHashRingRecache);
  config.client.reinstatement = false;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(64, 64);
  EXPECT_EQ(client_owner_digest(cluster, 4), kGoldenHealthy);
  flag_by_timeouts(cluster, 3, paths);
  EXPECT_EQ(client_owner_digest(cluster, 4), kGoldenFlagged);
}

TEST(ClientPlacementGolden, ProbeReinstatement) {
  ClusterConfig config = golden_config(FtMode::kHashRingRecache);
  config.client.reinstatement = true;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(64, 64);
  flag_by_timeouts(cluster, 3, paths);
  EXPECT_EQ(client_owner_digest(cluster, 4), kGoldenFlagged);
  cluster.restore_node(3);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.client(0).stats_snapshot().nodes_reinstated == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)cluster.client(0).read_file(paths[0]);
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_EQ(cluster.client(0).stats_snapshot().nodes_reinstated, 1u);
  // The reinstated node's old arcs map back to it: healthy placement.
  EXPECT_EQ(client_owner_digest(cluster, 4), kGoldenHealthy);
}

TEST(ClientPlacementGolden, ElasticJoin) {
  Cluster cluster(golden_config(FtMode::kHashRingRecache));
  ASSERT_EQ(cluster.add_node(), 4u);
  EXPECT_EQ(client_owner_digest(cluster, 5), kGoldenJoined);
}

TEST(ClientPlacementGolden, MembershipConvergedOnFailure) {
  ClusterConfig config = membership_config(4);
  config.client.vnodes_per_node = 100;
  Cluster cluster(config);
  EXPECT_EQ(client_owner_digest(cluster, 4), kGoldenHealthy);
  cluster.fail_node(3);
  ASSERT_TRUE(tick_until(cluster, [&] {
                return agents_converged(cluster, {3});
              }).has_value());
  // The dead node's own client is not asked: its agent stopped learning.
  EXPECT_EQ(client_owner_digest(cluster, 3), kGoldenConverged);
}

TEST(ClientPlacementGolden, StaticModuloReModulosOnJoin) {
  Cluster cluster(golden_config(FtMode::kPfsRedirect));
  EXPECT_EQ(client_owner_digest(cluster, 4), kGoldenModulo);
  ASSERT_EQ(cluster.add_node(), 4u);
  EXPECT_EQ(client_owner_digest(cluster, 5), kGoldenModuloJoined);
}

}  // namespace
}  // namespace ftc::cluster
