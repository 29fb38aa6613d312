// Server-side concurrency stress: many threads issue mixed operations
// (kReadFile / kPut / kEvict) against ONE server while write-behind
// recaches run after each miss's reply and capacity pressure forces
// evictions.  The old server
// serialized everything behind a single mutex, which hid accounting races
// by construction; the lock-striped store must keep the books exact
// without that crutch.  Run under TSan (scripts/sanitize.sh) for full
// value; the invariants below hold regardless.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/hvac_server.hpp"
#include "cluster/pfs_store.hpp"
#include "common/string_util.hpp"
#include "rpc/transport.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

TEST(Concurrency, MixedOpsUnderCapacityPressureKeepBooksExact) {
  constexpr std::uint32_t kUniverse = 48;
  constexpr std::uint32_t kFileBytes = 64;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 300;

  PfsStore pfs;
  pfs.populate_synthetic("/data", kUniverse, kFileBytes);
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < kUniverse; ++i) {
    paths.push_back("/data/file_" + zero_pad(i, 7) + ".tfrecord");
  }

  HvacServerConfig config;
  config.async_data_mover = true;  // write-behind races the RPC threads
  // Fits ~1/3 of the dataset: every pass over the universe evicts.
  config.cache_capacity_bytes = (kUniverse / 3) * kFileBytes;
  HvacServer server(0, pfs, config);

  rpc::Transport transport;
  transport.register_endpoint(0, [&server](const rpc::RpcRequest& request) {
    return server.handle(request);
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&transport, &paths, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto& path =
            paths[static_cast<std::size_t>(t * 131 + i * 7) % paths.size()];
        rpc::RpcRequest request;
        request.path = path;
        request.client_node = 0;
        switch (i % 5) {
          case 0:
          case 1:
          case 2:
            request.op = rpc::Op::kReadFile;
            break;
          case 3:
            request.op = rpc::Op::kPut;
            request.payload = std::string(kFileBytes, 'p');
            break;
          case 4:
            request.op = rpc::Op::kEvict;
            break;
        }
        auto result = transport.call(0, std::move(request), 2000ms);
        ASSERT_TRUE(result.is_ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server.flush_data_mover();  // quiescence: every recache landed

  // Invariant 1: the global byte counter equals the bytes actually held.
  // Every entry in this test is kFileBytes, so counting cached paths over
  // the universe gives the exact expected sum.
  std::size_t present = 0;
  for (const auto& path : paths) {
    if (server.has_cached(path)) ++present;
  }
  EXPECT_EQ(server.cached_file_count(), present);
  EXPECT_EQ(server.cached_bytes(),
            static_cast<std::uint64_t>(present) * kFileBytes);

  const auto stats = server.stats_snapshot();
  // Invariant 2: the budget held (capacity pressure really happened —
  // evictions must be nonzero for this test to mean anything).
  EXPECT_LE(stats.used_bytes, config.cache_capacity_bytes);
  EXPECT_GT(stats.evictions, 0u);

  // Invariant 3: no read was double-counted or dropped.
  EXPECT_EQ(stats.reads, stats.cache_hits + stats.cache_misses);
  EXPECT_EQ(stats.reads,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread * 3 / 5);

  // Zero-copy acceptance: the serve path never memcpy'd a payload.
  EXPECT_EQ(stats.payload_bytes_copied, 0u);
}

TEST(Concurrency, AsyncTransportThreadsStayBounded) {
  rpc::Transport transport;
  transport.register_endpoint(0, [](const rpc::RpcRequest& request) {
    rpc::RpcResponse response;
    response.code = StatusCode::kOk;
    response.payload = "echo:" + request.path;
    return response;
  });

  // Far more in-flight async calls than pool workers: the old
  // thread-per-call design would spawn 256 threads here.
  constexpr int kCalls = 256;
  std::atomic<int> completions{0};
  for (int i = 0; i < kCalls; ++i) {
    rpc::RpcRequest request;
    request.path = std::to_string(i);
    transport.call_async(0, std::move(request), 2000ms,
                         [&completions](StatusOr<rpc::RpcResponse> result) {
                           if (result.is_ok()) completions.fetch_add(1);
                         });
    EXPECT_LE(transport.async_pool_thread_count(),
              rpc::Transport::kAsyncPoolThreads);
  }
  transport.drain_async();
  EXPECT_EQ(completions.load(), kCalls);
  EXPECT_EQ(transport.async_pool_thread_count(),
            rpc::Transport::kAsyncPoolThreads);
}

// Write-behind recache runs on the endpoint worker that served the miss,
// after the reply and before that worker's next request.

TEST(WriteBehind, BackToBackRereadsCostOnePfsReadPerFile) {
  // One endpoint worker per node: the fill of a miss lands before the
  // owner serves the next request, so an immediate re-read always hits.
  // A mover thread that lagged the reply would let the re-read miss and
  // fetch the file from the PFS a second time.
  ClusterConfig config;
  config.node_count = 4;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 2000ms;
  config.server.async_data_mover = true;
  config.server.endpoint_workers = 1;
  Cluster cluster(config);
  constexpr std::uint32_t kFiles = 200;
  const auto paths = cluster.stage_dataset(kFiles, 256);
  auto& client = cluster.client(0);
  for (const auto& path : paths) {
    ASSERT_TRUE(client.read_file(path).is_ok()) << path;
    ASSERT_TRUE(client.read_file(path).is_ok()) << path;
  }
  EXPECT_EQ(cluster.pfs().read_count(), kFiles);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto stats = cluster.server(n).stats_snapshot();
    hits += stats.cache_hits;
    misses += stats.cache_misses;
  }
  EXPECT_EQ(misses, kFiles);
  EXPECT_EQ(hits, kFiles);
}

struct RereadOutcome {
  std::uint64_t pfs_reads = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t local_served = 0;
};

/// Four nodes, one endpoint worker each, write-behind on: each file is read
/// by its owner's own client and, right after, by another node's client,
/// in the order `owner_first` picks.  The owner's read is node-local, so
/// it runs on the reader's thread whenever the owner's worker is idle.
RereadOutcome reread_each_file_from_both_sides(bool owner_first) {
  ClusterConfig config;
  config.node_count = 4;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 2000ms;
  config.server.async_data_mover = true;
  config.server.endpoint_workers = 1;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(200, 256);
  for (const auto& path : paths) {
    const NodeId owner = cluster.client(0).current_owner(path);
    const NodeId remote = (owner + 1) % cluster.node_count();
    EXPECT_TRUE(cluster.client(owner_first ? owner : remote)
                    .read_file(path)
                    .is_ok())
        << path;
    EXPECT_TRUE(cluster.client(owner_first ? remote : owner)
                    .read_file(path)
                    .is_ok())
        << path;
  }
  RereadOutcome outcome;
  outcome.pfs_reads = cluster.pfs().read_count();
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto stats = cluster.server(n).stats_snapshot();
    outcome.hits += stats.cache_hits;
    outcome.misses += stats.cache_misses;
    outcome.local_served += cluster.transport().stats(n).local_served;
  }
  return outcome;
}

TEST(WriteBehind, LocalMissFillLandsBeforeARemoteReread) {
  // The owner's node-local miss hands its fill to the front of the owner's
  // endpoint queue, ahead of the remote re-read that follows: the re-read
  // hits, and each file costs one PFS read.
  const RereadOutcome outcome = reread_each_file_from_both_sides(true);
  EXPECT_EQ(outcome.pfs_reads, 200u);
  EXPECT_EQ(outcome.misses, 200u);
  EXPECT_EQ(outcome.hits, 200u);
  // Most first reads took the node-local path (one may queue while the
  // owner's worker still finishes the previous file's re-read).
  EXPECT_GT(outcome.local_served, 100u);
}

TEST(WriteBehind, RemoteMissFillLandsBeforeALocalReread) {
  // The owner's worker keeps its slot until the remote miss's fill has
  // run, so the owner's own node-local re-read cannot start before it.
  const RereadOutcome outcome = reread_each_file_from_both_sides(false);
  EXPECT_EQ(outcome.pfs_reads, 200u);
  EXPECT_EQ(outcome.misses, 200u);
  EXPECT_EQ(outcome.hits, 200u);
}

TEST(WriteBehind, DirectHandleMissIsCachedOnReturn) {
  // Off an endpoint worker there is no reply to wait for: the write-behind
  // runs inside handle(), so the entry exists when the call returns.
  PfsStore pfs;
  pfs.put("/f", "abc");
  HvacServerConfig config;
  config.async_data_mover = true;
  HvacServer server(0, pfs, config);
  rpc::RpcRequest request;
  request.path = "/f";
  ASSERT_EQ(server.handle(request).code, StatusCode::kOk);
  EXPECT_TRUE(server.has_cached("/f"));
  const auto stats = server.stats_snapshot();
  EXPECT_EQ(stats.recache_enqueued, 1u);
  EXPECT_EQ(stats.recache_completed, 1u);
}

TEST(WriteBehind, FlushWaitsForEveryConcurrentMiss) {
  // Four callers miss on distinct files through a four-worker endpoint.
  // Each reply reaches its caller before its recache lands; flush must
  // not return until every one of them has.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kFilesPerThread = 50;
  constexpr std::uint32_t kFiles = kThreads * kFilesPerThread;
  PfsStore pfs;
  pfs.populate_synthetic("/data", kFiles, 512);
  HvacServerConfig config;
  config.async_data_mover = true;
  config.endpoint_workers = kThreads;
  HvacServer server(0, pfs, config);
  rpc::Transport transport;
  transport.register_endpoint(
      0,
      [&server](const rpc::RpcRequest& request) {
        // A slow follow-up queued ahead of the server's recache holds the
        // recache back, so every caller holds its reply well before the
        // fill lands.
        rpc::Transport::after_reply([] { std::this_thread::sleep_for(1ms); });
        return server.handle(request);
      },
      kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&transport, t] {
      for (std::uint32_t i = 0; i < kFilesPerThread; ++i) {
        rpc::RpcRequest request;
        request.path = "/data/file_" +
                       zero_pad(static_cast<std::uint32_t>(t) *
                                    kFilesPerThread + i,
                                7) +
                       ".tfrecord";
        auto result = transport.call(0, std::move(request), 2000ms);
        ASSERT_TRUE(result.is_ok());
        ASSERT_EQ(result.value().code, StatusCode::kOk);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server.flush_data_mover();
  const auto stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_misses, kFiles);
  EXPECT_EQ(stats.recache_enqueued, kFiles);
  EXPECT_EQ(stats.recache_completed, stats.cache_misses);
  EXPECT_EQ(server.cached_file_count(), kFiles);
}

}  // namespace
}  // namespace ftc::cluster
