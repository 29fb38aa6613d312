// End-to-end data-integrity and coverage-gap tests: wire corruption,
// checksum bypass, capacity rejections, endpoint lifecycle.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "cluster/cluster.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig small_cluster(bool verify = true) {
  ClusterConfig config;
  config.node_count = 4;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 100ms;
  config.client.verify_checksums = verify;
  config.server.async_data_mover = false;
  return config;
}

// A wire bit-flip in the first payload byte is caught whichever CRC-32
// path verifies it: 128 B takes the 64-byte fold, 4 KiB and up the wide
// fold on CPUs that have it, 64 KiB and 1 MiB its prefetching loop too.
class CorruptionBySize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorruptionBySize, CorruptedPayloadDetectedByCrc) {
  Cluster cluster(small_cluster(/*verify=*/true));
  const auto paths =
      cluster.stage_dataset(20, static_cast<std::uint32_t>(GetParam()));
  cluster.warm_caches(paths);
  const NodeId owner = cluster.client(0).current_owner(paths[0]);
  cluster.transport().corrupt_next(owner, 1);
  auto result = cluster.client(0).read_file(paths[0]);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(cluster.client(0).stats_snapshot().checksum_failures, 1u);
  // The corruption was transient: the next read is clean.
  EXPECT_TRUE(cluster.client(0).read_file(paths[0]).is_ok());
}

INSTANTIATE_TEST_SUITE_P(Integrity, CorruptionBySize,
                         ::testing::Values(std::size_t{128},
                                           std::size_t{4} << 10,
                                           std::size_t{64} << 10,
                                           std::size_t{1} << 20),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

TEST(Integrity, ChecksumBypassAcceptsCorruption) {
  Cluster cluster(small_cluster(/*verify=*/false));
  const auto paths = cluster.stage_dataset(20, 128);
  cluster.warm_caches(paths);
  const NodeId owner = cluster.client(0).current_owner(paths[0]);
  cluster.transport().corrupt_next(owner, 1);
  // Without verification the corrupted payload sails through — the reason
  // the client verifies by default.
  auto result = cluster.client(0).read_file(paths[0]);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(cluster.client(0).stats_snapshot().checksum_failures, 0u);
}

TEST(Integrity, ServerKPutRejectsOverCapacity) {
  PfsStore pfs;
  HvacServerConfig config;
  config.async_data_mover = false;
  config.cache_capacity_bytes = 16;
  HvacServer server(0, pfs, config);
  rpc::RpcRequest put;
  put.op = rpc::Op::kPut;
  put.path = "/big";
  put.payload = std::string(64, 'x');
  EXPECT_EQ(server.handle(put).code, StatusCode::kCapacity);
  EXPECT_FALSE(server.has_cached("/big"));

  put.path = "/small";
  put.payload = "ok";
  EXPECT_EQ(server.handle(put).code, StatusCode::kOk);
  EXPECT_TRUE(server.has_cached("/small"));
  EXPECT_EQ(server.stats_snapshot().replicas_stored, 1u);
}

TEST(Integrity, EndpointReRegisterAfterUnregister) {
  rpc::Transport transport;
  int generation = 0;
  ASSERT_TRUE(transport
                  .register_endpoint(0,
                                     [&generation](const rpc::RpcRequest&) {
                                       rpc::RpcResponse response;
                                       response.payload =
                                           std::to_string(generation);
                                       return response;
                                     })
                  .is_ok());
  generation = 1;
  ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());
  ASSERT_TRUE(transport
                  .register_endpoint(0,
                                     [](const rpc::RpcRequest&) {
                                       rpc::RpcResponse response;
                                       response.payload = "fresh";
                                       return response;
                                     })
                  .is_ok());
  auto result = transport.call(0, rpc::RpcRequest{}, 500ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "fresh");
}

TEST(Integrity, CorruptNextOnUnknownEndpointIsNoop) {
  rpc::Transport transport;
  transport.corrupt_next(42, 3);  // must not crash
  SUCCEED();
}

TEST(Integrity, WarmCacheSurvivesManyReaders) {
  Cluster cluster(small_cluster());
  const auto paths = cluster.stage_dataset(30, 64);
  cluster.warm_caches(paths);
  const auto pfs_reads = cluster.pfs().read_count();
  // Every client reads every file: all served from NVMe, byte-identical.
  for (NodeId c = 0; c < cluster.node_count(); ++c) {
    for (const auto& path : paths) {
      auto result = cluster.client(c).read_file(path);
      ASSERT_TRUE(result.is_ok());
      ASSERT_EQ(result.value().size(), 64u);
    }
  }
  EXPECT_EQ(cluster.pfs().read_count(), pfs_reads);
}

}  // namespace
}  // namespace ftc::cluster
