// Warm failover: proactive ring-successor replication (warm_standby).
// Every authoritative fill is write-behind replicated to the next ring
// successor, generation-stamped; a node death is then served from standby
// NVMe with zero PFS traffic, and a ring-epoch change lazily re-targets
// the standbys through the reads that follow it.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig warm_config(std::uint32_t nodes = 4) {
  ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 50ms;
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.client.replication.factor = 2;
  config.client.replication.warm_standby = true;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 64 << 20;
  return config;
}

/// Reads every path through `client`, then flushes the write-behind puts
/// and folds their mailbox verdicts into the client's stats (ping drains
/// the mailbox at the top of the call).
void read_all_and_settle(Cluster& cluster, NodeId client,
                         const std::vector<std::string>& paths) {
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(client).read_file(path).is_ok()) << path;
  }
  cluster.transport().drain_async();
  (void)cluster.client(client).ping(client);
}

/// Live nodes currently caching `path`.
std::size_t live_holders(Cluster& cluster, const std::string& path) {
  std::size_t holders = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (cluster.node_is_failed(n)) continue;
    if (cluster.server(n).has_cached(path)) ++holders;
  }
  return holders;
}

TEST(WarmFailover, StandbysPopulateRingSuccessorsOnFill) {
  Cluster cluster(warm_config());
  const auto paths = cluster.stage_dataset(24, 64);
  read_all_and_settle(cluster, 0, paths);

  // Every file on primary + one standby, all placed write-behind.
  EXPECT_EQ(cluster.total_cached_files(), 2 * paths.size());
  for (const auto& path : paths) {
    EXPECT_EQ(live_holders(cluster, path), 2u) << path;
  }

  std::uint64_t warm_stored = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    warm_stored += cluster.server(n).stats_snapshot().warm_replicas_stored;
  }
  EXPECT_EQ(warm_stored, paths.size());

  const auto stats = cluster.client(0).stats_snapshot();
  EXPECT_EQ(stats.warm_pushes, paths.size());
  EXPECT_EQ(stats.warm_restores, 0u);
  // Warm puts fold into the one replicas_pushed total, as ever.
  EXPECT_EQ(stats.replicas_pushed, paths.size());
}

TEST(WarmFailover, StandbyPushIsOncePerGenerationNotPerRead) {
  Cluster cluster(warm_config());
  const auto paths = cluster.stage_dataset(8, 64);
  read_all_and_settle(cluster, 0, paths);
  const auto pushed_once = cluster.client(0).stats_snapshot().warm_pushes;
  // Re-reading the same files (cache hits now) must not re-push: the
  // standbys are already stamped with the current generation.
  read_all_and_settle(cluster, 0, paths);
  EXPECT_EQ(cluster.client(0).stats_snapshot().warm_pushes, pushed_once);
}

TEST(WarmFailover, DegradedReadsFromStandbyNeedZeroPfs) {
  Cluster cluster(warm_config());
  const auto paths = cluster.stage_dataset(32, 64);
  read_all_and_settle(cluster, 0, paths);
  const auto pfs_before = cluster.pfs().read_count();

  cluster.fail_node(2);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
  // The headline property: the clockwise successor — the node every lost
  // key fails over to — already held the standby, so the storm touched
  // the PFS zero times.
  EXPECT_EQ(cluster.pfs().read_count(), pfs_before);
  cluster.transport().drain_async();
}

TEST(WarmFailover, BackgroundRestoreReachievesFactorAfterKill) {
  Cluster cluster(warm_config());
  const auto paths = cluster.stage_dataset(24, 64);
  read_all_and_settle(cluster, 0, paths);

  cluster.fail_node(1);
  // The kill moves the ring (generation bump), so the reads that follow
  // re-target every file's standbys against the surviving ring.  A few
  // rounds let pushes deferred at the restore_concurrency cap retry.
  for (int round = 0; round < 3; ++round) {
    read_all_and_settle(cluster, 0, paths);
  }

  for (const auto& path : paths) {
    EXPECT_GE(live_holders(cluster, path), 2u) << path;
  }
  const auto stats = cluster.client(0).stats_snapshot();
  EXPECT_GT(stats.warm_invalidations, 0u);
  EXPECT_GT(stats.warm_restores, 0u);
}

TEST(WarmFailover, ElasticAddInvalidatesAndRetargetsStandbys) {
  Cluster cluster(warm_config(3));
  const auto paths = cluster.stage_dataset(24, 64);
  read_all_and_settle(cluster, 0, paths);
  ASSERT_EQ(cluster.client(0).stats_snapshot().warm_invalidations, 0u);

  // Scale-up moves ~1/(N+1) of the keyspace: the standbys derived from
  // the 3-node ring are stale, and the reads that follow repair them.
  cluster.add_node();
  for (int round = 0; round < 3; ++round) {
    read_all_and_settle(cluster, 0, paths);
  }
  const auto stats = cluster.client(0).stats_snapshot();
  EXPECT_GT(stats.warm_invalidations, 0u);
  EXPECT_GT(stats.warm_restores, 0u);
  for (const auto& path : paths) {
    EXPECT_GE(live_holders(cluster, path), 2u) << path;
  }
}

TEST(WarmFailover, RejoinAfterReinstatementRetargetsStandbys) {
  Cluster cluster(warm_config());
  const auto paths = cluster.stage_dataset(24, 64);
  read_all_and_settle(cluster, 0, paths);

  const NodeId victim = 1;
  cluster.fail_node(victim);
  read_all_and_settle(cluster, 0, paths);  // degrade + restore round
  const auto restores_after_kill =
      cluster.client(0).stats_snapshot().warm_restores;
  EXPECT_GT(restores_after_kill, 0u);

  // The node returns with its NVMe wiped; reinstatement (probe -> elastic
  // re-add) is another ring-epoch bump, so standbys re-target again.
  cluster.restore_node(victim, /*lose_cache=*/true);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.client(0).stats_snapshot().nodes_reinstated == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)cluster.client(0).read_file(paths[0]);
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GE(cluster.client(0).stats_snapshot().nodes_reinstated, 1u);

  for (int round = 0; round < 3; ++round) {
    read_all_and_settle(cluster, 0, paths);
  }
  EXPECT_GT(cluster.client(0).stats_snapshot().warm_restores,
            restores_after_kill);
  for (const auto& path : paths) {
    EXPECT_GE(live_holders(cluster, path), 2u) << path;
  }
}

TEST(WarmFailover, RejoinWithEmptyCacheRepairsStandbysOfFilesNotReadMeanwhile) {
  Cluster cluster(warm_config());
  const auto paths = cluster.stage_dataset(24, 64);
  read_all_and_settle(cluster, 0, paths);

  // Only half the files are read while the victim is down; the other
  // half keep markings that name the victim as their standby.
  const NodeId victim = 1;
  cluster.fail_node(victim);
  std::vector<std::string> read_half;
  for (std::size_t i = 0; i < paths.size(); i += 2) {
    read_half.push_back(paths[i]);
  }
  read_all_and_settle(cluster, 0, read_half);

  // The victim returns with its cache wiped.  After reinstatement the
  // ring looks as it did before the kill, so an unread file's recomputed
  // standby set equals its old marking — but the standby's bytes are
  // gone, and the marking must not be adopted as if they were there.
  cluster.restore_node(victim, /*lose_cache=*/true);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.client(0).stats_snapshot().nodes_reinstated == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)cluster.client(0).read_file(paths[0]);
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GE(cluster.client(0).stats_snapshot().nodes_reinstated, 1u);
  const auto restores_before =
      cluster.client(0).stats_snapshot().warm_restores;

  for (int round = 0; round < 3; ++round) {
    read_all_and_settle(cluster, 0, paths);
  }
  for (const auto& path : paths) {
    EXPECT_GE(live_holders(cluster, path), 2u) << path;
  }
  // The re-placements were repairs of known files, not first placements.
  EXPECT_GT(cluster.client(0).stats_snapshot().warm_restores,
            restores_before);
}

TEST(WarmFailover, StaleGenerationPutIsRejectedByServer) {
  // Server-level freshness rule, exercised directly: a stamped put can
  // never roll a standby back to an older generation.
  PfsStore pfs;
  HvacServerConfig config;
  config.async_data_mover = false;
  HvacServer server(0, pfs, config);

  const common::Buffer fresh("fresh bytes");
  const common::Buffer stale("stale bytes");
  rpc::RpcRequest put;
  put.op = rpc::Op::kPut;
  put.path = "f";
  put.payload = fresh;
  put.replica_generation = 3;
  EXPECT_EQ(server.handle(put).code, StatusCode::kOk);

  put.payload = stale;
  put.replica_generation = 2;
  EXPECT_EQ(server.handle(put).code, StatusCode::kCancelled);
  EXPECT_EQ(server.stats_snapshot().stale_replica_puts, 1u);

  // Equal generation re-stores (a push retried after a shed must land).
  put.payload = fresh;
  put.replica_generation = 3;
  EXPECT_EQ(server.handle(put).code, StatusCode::kOk);

  // Unstamped legacy puts never consult the ledger.
  put.replica_generation = 0;
  EXPECT_EQ(server.handle(put).code, StatusCode::kOk);

  EXPECT_EQ(server.stats_snapshot().warm_replicas_stored, 2u);
  EXPECT_EQ(server.stats_snapshot().replicas_stored, 3u);

  // A wiped cache forgets the ledger too: a rejoined node must accept
  // the very standbys that repopulate it, whatever their stamp.
  server.clear_cache();
  put.replica_generation = 1;
  EXPECT_EQ(server.handle(put).code, StatusCode::kOk);
}

TEST(WarmFailover, HotFanoutAndWarmStandbyDedupeSharedSuccessor) {
  // Regression for the overlap bug: the hot fanout and the warm standby
  // walk the same successor chain, so on a promoted file's fill the
  // shared successor must receive exactly ONE put (generation-stamped),
  // never two generations of the same replica.
  ClusterConfig config = warm_config();
  config.client.hot_fanout = true;
  config.client.hot_replica_fanout = 2;
  config.client.hot_promote_threshold = 0.5;  // first access promotes
  config.client.hot_demote_threshold = 0.0;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(1, 64);

  // One read: promotion fires, the fill fires, the warm standby fires —
  // three policies, one merged put to the single successor.
  ASSERT_TRUE(cluster.client(0).read_file(paths[0]).is_ok());
  cluster.transport().drain_async();
  (void)cluster.client(0).ping(0);

  std::uint64_t stored = 0;
  std::uint64_t warm_stored = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto s = cluster.server(n).stats_snapshot();
    stored += s.replicas_stored;
    warm_stored += s.warm_replicas_stored;
  }
  EXPECT_EQ(stored, 1u);       // deduped: one put, not one per policy
  EXPECT_EQ(warm_stored, 1u);  // and it carried the warm stamp
  EXPECT_EQ(cluster.client(0).stats_snapshot().replicas_pushed, 1u);
  EXPECT_TRUE(cluster.client(0).file_is_hot(paths[0]));
}

TEST(WarmFailover, WarmStandbyRequiresRingMode) {
  ClusterConfig config = warm_config();
  config.client.mode = FtMode::kPfsRedirect;
  EXPECT_EQ(config.client.validate().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ftc::cluster
