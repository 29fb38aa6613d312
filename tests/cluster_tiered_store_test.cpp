// The cache store wired through the cluster: default nodes run it
// RAM-only and still export ftc_store_* metrics, tiered nodes
// (store.nvme_bytes > 0) serve and export the nvme rows too, and a
// kill-and-warm-restart rebuilds the cold tier from the node's surviving
// NVMe manifest — re-serving without PFS traffic and refusing entries
// whose generation the rest of the cluster has since superseded.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig tiered_config(std::uint32_t nodes = 4) {
  ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 50ms;
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 8 << 20;
  config.server.store.nvme_bytes = 32 << 20;
  config.server.store.policy = ftc::store::PolicyKind::kS3Fifo;
  config.server.store.background_reclaim = false;  // deterministic moves
  return config;
}

TEST(ClusterTieredStore, DefaultConfigIsRamOnlyAndExportsStoreSeries) {
  ClusterConfig config = tiered_config();
  config.server.store = {};  // the default store: RAM-only, LRU
  Cluster cluster(config);

  const auto paths = cluster.stage_dataset(8, 256);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
  std::uint64_t hot_hits = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto stats = cluster.server(n).store_stats();
    hot_hits += stats.hot_hits;
    EXPECT_EQ(stats.nvme_used_bytes, 0u);
    EXPECT_EQ(stats.cold_hits, 0u);
  }
  EXPECT_GE(hot_hits, paths.size());

  // Every node has a store, so the store series are always exported; the
  // nvme row reads 0.
  const std::string text = cluster.metrics_registry().export_prometheus_text();
  for (const char* series :
       {"ftc_store_tier_used_bytes", "ftc_store_hits_total",
        "ftc_store_misses_total", "ftc_store_evictions_total",
        "ftc_store_hit_ratio"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
  EXPECT_NE(text.find("ftc_store_tier_used_bytes{node=\"0\",tier=\"nvme\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("policy=\"lru\""), std::string::npos);
  // Without a cold tier no device survives a crash: restart_node_warm
  // takes the lost-cache path.
  EXPECT_EQ(cluster.restart_node_warm(1), 0u);
  EXPECT_EQ(cluster.server(1).cached_file_count(), 0u);
}

TEST(ClusterTieredStore, TieredNodesServeAndExportMetrics) {
  Cluster cluster(tiered_config());

  const auto paths = cluster.stage_dataset(16, 1024);
  cluster.warm_caches(paths);
  const auto pfs_after_warm = cluster.pfs().read_count();
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
  EXPECT_EQ(cluster.pfs().read_count(), pfs_after_warm);  // all cache hits

  std::uint64_t hot_hits = 0;
  std::uint64_t ram_used = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto stats = cluster.server(n).store_stats();
    hot_hits += stats.hot_hits;
    ram_used += stats.ram_used_bytes;
  }
  EXPECT_GE(hot_hits, paths.size());
  EXPECT_EQ(ram_used, 16u * 1024u);

  const std::string text = cluster.metrics_registry().export_prometheus_text();
  for (const char* series :
       {"ftc_store_tier_used_bytes", "ftc_store_hits_total",
        "ftc_store_misses_total", "ftc_store_evictions_total",
        "ftc_store_hit_ratio", "ftc_store_manifest_restored_total"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
  EXPECT_NE(text.find("tier=\"ram\""), std::string::npos);
  EXPECT_NE(text.find("tier=\"nvme\""), std::string::npos);
  EXPECT_NE(text.find("policy=\"s3fifo\""), std::string::npos);
}

TEST(ClusterTieredStore, WarmRestartReServesWithoutPfs) {
  Cluster cluster(tiered_config());
  const auto paths = cluster.stage_dataset(24, 1024);
  cluster.warm_caches(paths);

  const NodeId victim = 2;
  const std::size_t held = cluster.server(victim).cached_file_count();
  ASSERT_GT(held, 0u);
  // Writeback before the kill: demote the RAM tier so the device manifest
  // covers everything the node held (a crash mid-epoch would cover only
  // what pressure had already demoted).
  cluster.server(victim).flush_cache_to_cold();

  const auto pfs_before = cluster.pfs().read_count();
  const std::size_t restored = cluster.restart_node_warm(victim);
  EXPECT_EQ(restored, held);
  EXPECT_EQ(cluster.server(victim).store_stats().manifest_restored, held);

  // Every path re-reads warm: survivors from their RAM tiers, the
  // restarted node from its rebuilt cold tier.  Zero PFS traffic.
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
  EXPECT_EQ(cluster.pfs().read_count(), pfs_before);
  EXPECT_EQ(cluster.server(victim).stats_snapshot().pfs_fetches, 0u);
  EXPECT_GT(cluster.server(victim).store_stats().cold_hits, 0u);
}

TEST(ClusterTieredStore, WarmRestartRejectsSupersededGenerations) {
  Cluster cluster(tiered_config());
  const NodeId victim = 2;
  const NodeId peer = 1;

  // The victim holds /model/shard at generation 5 on its device...
  rpc::RpcRequest put;
  put.op = rpc::Op::kPut;
  put.path = "/model/shard";
  put.payload = common::Buffer(std::string(512, 'v'));
  put.replica_generation = 5;
  ASSERT_EQ(cluster.server(victim).handle(put).code, StatusCode::kOk);
  cluster.server(victim).flush_cache_to_cold();

  // ...but while it is down the cluster moves on to generation 7, which
  // an alive peer's freshness ledger remembers.
  put.payload = common::Buffer(std::string(512, 'p'));
  put.replica_generation = 7;
  ASSERT_EQ(cluster.server(peer).handle(put).code, StatusCode::kOk);

  const std::size_t restored = cluster.restart_node_warm(victim);
  EXPECT_EQ(restored, 0u);
  const auto stats = cluster.server(victim).store_stats();
  EXPECT_EQ(stats.manifest_rejected_stale, 1u);
  EXPECT_FALSE(cluster.server(victim).has_cached("/model/shard"));

  // The rejection seeds nothing: a fresh stamped put at the current
  // generation lands normally.
  put.replica_generation = 7;
  EXPECT_EQ(cluster.server(victim).handle(put).code, StatusCode::kOk);
  EXPECT_TRUE(cluster.server(victim).has_cached("/model/shard"));
}

TEST(ClusterTieredStore, RestartedNodeLedgerRefusesStaleStandbyPush) {
  // The ledger gap: a warm restart must RE-SEED the freshness ledger from
  // the manifest it restored, else a delayed stale standby push (from
  // before the crash) would roll the entry back.
  Cluster cluster(tiered_config());
  const NodeId victim = 2;

  rpc::RpcRequest put;
  put.op = rpc::Op::kPut;
  put.path = "/model/shard";
  put.payload = common::Buffer(std::string(512, 'v'));
  put.replica_generation = 6;
  ASSERT_EQ(cluster.server(victim).handle(put).code, StatusCode::kOk);
  cluster.server(victim).flush_cache_to_cold();

  ASSERT_EQ(cluster.restart_node_warm(victim), 1u);
  ASSERT_TRUE(cluster.server(victim).has_cached("/model/shard"));

  put.payload = common::Buffer(std::string(512, 's'));
  put.replica_generation = 4;  // delayed pre-crash push
  EXPECT_EQ(cluster.server(victim).handle(put).code, StatusCode::kCancelled);
  EXPECT_EQ(cluster.server(victim).stats_snapshot().stale_replica_puts, 1u);
}

TEST(ClusterTieredStore, InvalidStoreConfigRejectedAtValidate) {
  ClusterConfig config = tiered_config();
  config.server.store.high_watermark = 0.2;  // below low watermark
  EXPECT_EQ(config.server.validate().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ftc::cluster
