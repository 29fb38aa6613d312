#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "cluster/hvac_server.hpp"
#include "cluster/pfs_store.hpp"
#include "hash/crc32.hpp"

namespace ftc::cluster {
namespace {

HvacServerConfig sync_config() {
  HvacServerConfig config;
  config.async_data_mover = false;  // deterministic for unit tests
  config.cache_capacity_bytes = 1 << 20;
  return config;
}

TEST(PfsStore, PutReadRoundTrip) {
  PfsStore pfs;
  pfs.put("/a", "contents");
  auto got = pfs.read("/a");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), "contents");
  EXPECT_EQ(pfs.read_count(), 1u);
  EXPECT_TRUE(pfs.contains("/a"));
  EXPECT_EQ(pfs.file_count(), 1u);
}

TEST(PfsStore, MissingFile) {
  PfsStore pfs;
  auto got = pfs.read("/none");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(pfs.read_count(), 0u);
}

TEST(PfsStore, PopulateSynthetic) {
  PfsStore pfs;
  pfs.populate_synthetic("/data", 5, 64);
  EXPECT_EQ(pfs.file_count(), 5u);
  auto got = pfs.read("/data/file_0000003.tfrecord");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().size(), 64u);
  // Contents deterministic: same file regenerated identically.
  PfsStore other;
  other.populate_synthetic("/data", 5, 64);
  EXPECT_EQ(other.read("/data/file_0000003.tfrecord").value(), got.value());
}

TEST(HvacServer, MissFetchesFromPfsThenCaches) {
  PfsStore pfs;
  pfs.put("/f", "payload");
  HvacServer server(0, pfs, sync_config());

  rpc::RpcRequest request;
  request.op = rpc::Op::kReadFile;
  request.path = "/f";
  const auto first = server.handle(request);
  EXPECT_EQ(first.code, StatusCode::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.payload, "payload");
  EXPECT_EQ(first.checksum, hash::crc32("payload"));
  EXPECT_TRUE(server.has_cached("/f"));

  const auto second = server.handle(request);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.payload, "payload");
  EXPECT_EQ(pfs.read_count(), 1u);  // PFS touched exactly once

  const auto stats = server.stats_snapshot();
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.recache_completed, 1u);
}

TEST(HvacServer, MissingEverywhereReturnsNotFound) {
  PfsStore pfs;
  HvacServer server(0, pfs, sync_config());
  rpc::RpcRequest request;
  request.path = "/ghost";
  EXPECT_EQ(server.handle(request).code, StatusCode::kNotFound);
}

TEST(HvacServer, PingAndStatsOps) {
  PfsStore pfs;
  HvacServer server(0, pfs, sync_config());
  rpc::RpcRequest ping;
  ping.op = rpc::Op::kPing;
  EXPECT_EQ(server.handle(ping).code, StatusCode::kOk);

  rpc::RpcRequest stats;
  stats.op = rpc::Op::kStats;
  const auto response = server.handle(stats);
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_NE(response.payload.view().find("reads="), std::string::npos);
}

TEST(HvacServer, EvictOp) {
  PfsStore pfs;
  pfs.put("/f", "x");
  HvacServer server(0, pfs, sync_config());
  rpc::RpcRequest read;
  read.path = "/f";
  server.handle(read);
  ASSERT_TRUE(server.has_cached("/f"));

  rpc::RpcRequest evict;
  evict.op = rpc::Op::kEvict;
  evict.path = "/f";
  EXPECT_EQ(server.handle(evict).code, StatusCode::kOk);
  EXPECT_FALSE(server.has_cached("/f"));
  EXPECT_EQ(server.handle(evict).code, StatusCode::kNotFound);
}

TEST(HvacServer, AsyncDataMoverEventuallyCaches) {
  PfsStore pfs;
  pfs.put("/f", "abc");
  HvacServerConfig config;
  config.async_data_mover = true;
  config.cache_capacity_bytes = 1 << 20;
  HvacServer server(0, pfs, config);
  rpc::RpcRequest request;
  request.path = "/f";
  const auto response = server.handle(request);
  EXPECT_EQ(response.code, StatusCode::kOk);
  server.flush_data_mover();
  EXPECT_TRUE(server.has_cached("/f"));
  EXPECT_EQ(server.stats_snapshot().recache_completed, 1u);
}

// kStats must expose the FULL counter snapshot, not just the read trio —
// operators diff these fields across nodes to spot imbalance.
TEST(HvacServer, StatsOpEmitsFullSnapshot) {
  PfsStore pfs;
  pfs.put("/a", std::string(60, 'a'));
  pfs.put("/b", std::string(60, 'b'));
  HvacServerConfig config = sync_config();
  config.cache_capacity_bytes = 100;  // /b evicts /a
  HvacServer server(0, pfs, config);

  rpc::RpcRequest read;
  read.op = rpc::Op::kReadFile;
  read.path = "/a";
  server.handle(read);  // miss + recache
  server.handle(read);  // hit
  read.path = "/b";
  server.handle(read);  // miss + recache -> evicts /a

  rpc::RpcRequest put;
  put.op = rpc::Op::kPut;
  put.path = "/replica";
  put.payload = std::string(10, 'r');
  ASSERT_EQ(server.handle(put).code, StatusCode::kOk);

  rpc::RpcRequest stats_op;
  stats_op.op = rpc::Op::kStats;
  const auto response = server.handle(stats_op);
  ASSERT_EQ(response.code, StatusCode::kOk);

  // Parse the key=value payload.
  std::map<std::string, std::uint64_t> kv;
  std::istringstream in(std::string(response.payload.view()));
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    kv[token.substr(0, eq)] = std::stoull(token.substr(eq + 1));
  }

  const auto s = server.stats_snapshot();
  EXPECT_EQ(kv.at("reads"), s.reads);
  EXPECT_EQ(kv.at("hits"), s.cache_hits);
  EXPECT_EQ(kv.at("misses"), s.cache_misses);
  EXPECT_EQ(kv.at("pfs_fetches"), s.pfs_fetches);
  EXPECT_EQ(kv.at("recache_enqueued"), s.recache_enqueued);
  EXPECT_EQ(kv.at("recache_completed"), s.recache_completed);
  EXPECT_EQ(kv.at("replicas_stored"), 1u);
  EXPECT_EQ(kv.at("payload_bytes_copied"), 0u);
  EXPECT_EQ(kv.at("evictions"), 1u);
  EXPECT_EQ(kv.at("used_bytes"), 70u);  // /b (60) + /replica (10)
  EXPECT_EQ(kv.at("capacity_bytes"), 100u);
  EXPECT_EQ(kv.at("files"), 2u);

  // Every Stats field has a key (cache_hits and cache_misses as hits and
  // misses), plus capacity_bytes and files; a field added to Stats but
  // left out of the reply fails the count.
  EXPECT_EQ(kv.size(), sizeof(HvacServer::Stats) / sizeof(std::uint64_t) + 2);
  EXPECT_EQ(kv.at("warm_replicas_stored"), s.warm_replicas_stored);
  EXPECT_EQ(kv.at("stale_replica_puts"), s.stale_replica_puts);
  EXPECT_EQ(kv.at("warm_replica_bytes"), s.warm_replica_bytes);
  EXPECT_EQ(kv.at("expired_on_arrival"), s.expired_on_arrival);
  EXPECT_EQ(kv.at("pfs_coalesced"), s.pfs_coalesced);
  EXPECT_EQ(kv.at("pfs_breaker_open"), s.pfs_breaker_open);
  EXPECT_EQ(kv.at("peer_gets"), s.peer_gets);
  EXPECT_EQ(kv.at("peer_get_hits"), s.peer_get_hits);
  EXPECT_EQ(kv.at("peer_get_bytes"), s.peer_get_bytes);
  EXPECT_EQ(kv.at("fenced_writes"), s.fenced_writes);
  EXPECT_EQ(kv.at("stale_epoch_puts_accepted"), s.stale_epoch_puts_accepted);
}

// The default store has no cold tier: overfilling it evicts inline, with
// no demotion, no overflow write and no watermark drain.
TEST(HvacServer, OverfilledDefaultStoreEvictsInline) {
  PfsStore pfs;
  HvacServerConfig config;
  config.cache_capacity_bytes = 16 << 10;
  HvacServer server(0, pfs, config);
  rpc::RpcRequest request;
  for (int i = 0; i < 64; ++i) {
    request.path = "/f" + std::to_string(i);
    pfs.put(request.path, std::string(1024, 'x'));
    ASSERT_EQ(server.handle(request).code, StatusCode::kOk);
  }
  server.flush_data_mover();

  const auto s = server.stats_snapshot();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.used_bytes, config.cache_capacity_bytes);
  EXPECT_EQ(server.cache_capacity_bytes(), config.cache_capacity_bytes);
  const auto store = server.store_stats();
  EXPECT_EQ(store.demotions, 0u);
  EXPECT_EQ(store.overflow_writes, 0u);
  EXPECT_EQ(store.nvme_used_bytes, 0u);
  EXPECT_EQ(store.reclaim_runs, 0u);
}

TEST(HvacServer, CachedBytesTracked) {
  PfsStore pfs;
  pfs.put("/a", std::string(100, 'x'));
  pfs.put("/b", std::string(50, 'y'));
  HvacServer server(0, pfs, sync_config());
  rpc::RpcRequest request;
  request.path = "/a";
  server.handle(request);
  request.path = "/b";
  server.handle(request);
  EXPECT_EQ(server.cached_file_count(), 2u);
  EXPECT_EQ(server.cached_bytes(), 150u);
}

}  // namespace
}  // namespace ftc::cluster
