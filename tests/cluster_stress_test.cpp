// Concurrency stress: many client threads hammer the cluster while nodes
// die underneath them.  Catches data races and lost wakeups in the
// transport/server/write-behind paths (run under TSan for full value; asserts
// functional correctness regardless).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

TEST(Stress, ConcurrentReadersWithFailures) {
  ClusterConfig config;
  config.node_count = 4;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 50ms;
  config.client.timeout_limit = 2;
  config.server.async_data_mover = true;  // exercise write-behind too
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(64, 128);
  cluster.warm_caches(paths);

  std::atomic<std::uint64_t> ok_reads{0};
  std::atomic<std::uint64_t> failed_reads{0};
  std::atomic<bool> stop{false};

  // One reader thread per node's client, each doing passes over the
  // dataset.  Each HvacClient is single-threaded by contract, so one
  // thread per client is the supported concurrency pattern.
  std::vector<std::thread> readers;
  readers.reserve(cluster.node_count());
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    readers.emplace_back([&cluster, &paths, &ok_reads, &failed_reads, &stop,
                          n] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& path : paths) {
          auto result = cluster.client(n).read_file(path);
          if (result.is_ok()) {
            ok_reads.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Kill two nodes while the readers run.
  std::this_thread::sleep_for(30ms);
  cluster.fail_node(1);
  std::this_thread::sleep_for(50ms);
  cluster.fail_node(3);
  std::this_thread::sleep_for(100ms);
  stop.store(true);
  for (auto& reader : readers) reader.join();

  // The two failed nodes' own clients keep working (clients live on the
  // node but the failure model kills only the server endpoint); every
  // read must eventually succeed via ring recaching.
  EXPECT_GT(ok_reads.load(), 4u * paths.size());
  EXPECT_EQ(failed_reads.load(), 0u);

  // Post-stress sanity: single-threaded full pass is clean.
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok()) << path;
  }
}

TEST(Stress, AsyncCallsDuringFailure) {
  ClusterConfig config;
  config.node_count = 3;
  config.client.rpc_timeout = 40ms;
  config.server.async_data_mover = false;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(16, 64);
  cluster.warm_caches(paths);

  std::atomic<int> completions{0};
  for (int round = 0; round < 4; ++round) {
    for (NodeId target = 0; target < 3; ++target) {
      rpc::RpcRequest request;
      request.op = rpc::Op::kReadFile;
      request.path = paths[static_cast<std::size_t>(round) % paths.size()];
      cluster.transport().call_async(
          target, std::move(request), 200ms,
          [&completions](StatusOr<rpc::RpcResponse>) {
            completions.fetch_add(1);
          });
    }
    if (round == 1) cluster.fail_node(2);
  }
  cluster.transport().drain_async();
  EXPECT_EQ(completions.load(), 12);
}

}  // namespace
}  // namespace ftc::cluster
