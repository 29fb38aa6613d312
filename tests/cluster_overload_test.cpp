// Failover-storm hardening tests: deadline propagation, admission/busy
// handling, retry budgets, and the PFS singleflight + breaker.  The
// regression contract tested throughout: kBusy is liveness evidence,
// never a fault signal, and with every knob off behaviour is legacy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/hvac_client.hpp"
#include "cluster/hvac_server.hpp"
#include "cluster/pfs_guard.hpp"
#include "cluster/pfs_store.hpp"
#include "rpc/transport.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

rpc::RpcRequest read_request(const std::string& path) {
  rpc::RpcRequest request;
  request.op = rpc::Op::kReadFile;
  request.path = path;
  return request;
}

TEST(PfsSingleflight, ConcurrentMissesCoalesceToOnePfsRead) {
  // The storm shape: one lost file, M first-touch misses at the new owner
  // at once.  With the guard on, the PFS must see exactly ONE read; every
  // other request shares the leader's fetch (or, arriving after the
  // flight closed, hits the cache the leader populated synchronously).
  PfsStore pfs(/*read_latency=*/20000us);
  pfs.put("/lost", "payload-of-the-lost-file");
  HvacServerConfig config;
  config.async_data_mover = false;
  config.pfs_singleflight = true;
  HvacServer server(0, pfs, config);

  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &ok] {
      const auto response = server.handle(read_request("/lost"));
      if (response.code == StatusCode::kOk &&
          response.payload == "payload-of-the-lost-file") {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(pfs.read_count("/lost"), 1u);  // the whole point
  const auto stats = server.stats_snapshot();
  EXPECT_EQ(stats.pfs_fetches, 1u);
  EXPECT_EQ(stats.recache_completed, 1u);
  EXPECT_TRUE(server.has_cached("/lost"));
  // Everyone who arrived mid-flight is accounted as coalesced.
  ASSERT_NE(server.pfs_guard(), nullptr);
  EXPECT_EQ(stats.pfs_coalesced, server.pfs_guard()->stats_snapshot().coalesced);
}

TEST(PfsSingleflight, SerialRepeatMissesStillSinglePfsRead) {
  // Leader recaches synchronously before the flight closes, so even a
  // request arriving just after coalescing ended hits NVMe, not the PFS.
  PfsStore pfs;
  pfs.put("/f", "x");
  HvacServerConfig config;
  config.async_data_mover = false;
  config.pfs_singleflight = true;
  HvacServer server(0, pfs, config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(server.handle(read_request("/f")).code, StatusCode::kOk);
  }
  EXPECT_EQ(pfs.read_count("/f"), 1u);
  EXPECT_EQ(server.stats_snapshot().cache_hits, 4u);
}

TEST(PfsContention, BoundedServiceSlotsStretchConcurrentReads) {
  // With one service slot, K concurrent latency-modelled reads serialize:
  // total wall time ~= K service times, and the slowest single read waited
  // through the whole queue.  This is the physics that makes duplicate
  // failover-storm fetches expensive (and what bench_failstorm leans on).
  constexpr int kReaders = 4;
  const auto kLatency = std::chrono::milliseconds(20);
  PfsStore pfs(kLatency);
  pfs.set_service_concurrency(1);
  pfs.put("/data", "payload");
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&pfs] {
      EXPECT_TRUE(pfs.read("/data").is_ok());
    });
  }
  for (auto& reader : readers) reader.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Serialized: >= K * latency (minus scheduling slack), where the
  // unlimited default would finish in ~1 latency.
  EXPECT_GE(elapsed, kReaders * kLatency - std::chrono::milliseconds(5));
  EXPECT_EQ(pfs.read_count("/data"), static_cast<std::uint64_t>(kReaders));
  EXPECT_EQ(pfs.service_concurrency(), 1u);
}

TEST(PfsContention, UnlimitedByDefaultRunsConcurrently) {
  constexpr int kReaders = 4;
  const auto kLatency = std::chrono::milliseconds(20);
  PfsStore pfs(kLatency);  // service_concurrency defaults to 0 = unlimited
  pfs.put("/data", "payload");
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&pfs] {
      EXPECT_TRUE(pfs.read("/data").is_ok());
    });
  }
  for (auto& reader : readers) reader.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // All sleeps overlap; far below the serialized K * latency.
  EXPECT_LT(elapsed, 3 * kLatency);
}

TEST(PfsFetchGuard, BreakerTripsFastRejectsThenRecovers) {
  PfsGuardOptions options;
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown = 50ms;
  PfsFetchGuard guard(options);

  const auto failing = []() -> StatusOr<common::Buffer> {
    return Status::internal("pfs io error");
  };
  for (int i = 0; i < 3; ++i) {
    const auto outcome = guard.fetch("/k" + std::to_string(i), failing);
    EXPECT_FALSE(outcome.result.is_ok());
    EXPECT_FALSE(outcome.rejected_busy);
  }
  EXPECT_TRUE(guard.breaker_open());

  // Open: fast kBusy with a retry-after hint, fn never runs.
  bool ran = false;
  const auto rejected = guard.fetch("/k", [&ran]() -> StatusOr<common::Buffer> {
    ran = true;
    return common::Buffer("unreachable");
  });
  EXPECT_TRUE(rejected.rejected_busy);
  EXPECT_FALSE(ran);
  EXPECT_EQ(rejected.result.status().code(), StatusCode::kBusy);
  EXPECT_GE(rejected.retry_after_ms, 1u);

  // After the cooldown the half-open trial runs; success closes it.
  std::this_thread::sleep_for(60ms);
  const auto trial = guard.fetch("/k", []() -> StatusOr<common::Buffer> {
    return common::Buffer("recovered");
  });
  ASSERT_TRUE(trial.result.is_ok());
  EXPECT_FALSE(guard.breaker_open());

  const auto stats = guard.stats_snapshot();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_rejections, 1u);
}

TEST(PfsFetchGuard, NotFoundNeverTripsBreaker) {
  PfsGuardOptions options;
  options.breaker_failure_threshold = 2;
  PfsFetchGuard guard(options);
  for (int i = 0; i < 6; ++i) {
    const auto outcome =
        guard.fetch("/missing", []() -> StatusOr<common::Buffer> {
          return Status::not_found("no such file");
        });
    EXPECT_EQ(outcome.result.status().code(), StatusCode::kNotFound);
    EXPECT_FALSE(outcome.rejected_busy);
  }
  EXPECT_FALSE(guard.breaker_open());
}

TEST(DeadlineShedding, ServerNeverExecutesExpiredWork) {
  PfsStore pfs;
  pfs.put("/f", "x");
  HvacServerConfig config;
  config.async_data_mover = false;
  HvacServer server(0, pfs, config);

  auto expired = read_request("/f");
  expired.deadline_ns = rpc::deadline_clock_ns() - 1;  // passed in queue
  const auto response = server.handle(expired);
  EXPECT_EQ(response.code, StatusCode::kCancelled);
  const auto stats = server.stats_snapshot();
  EXPECT_EQ(stats.expired_on_arrival, 1u);
  EXPECT_EQ(stats.reads, 0u);  // shed BEFORE dispatch, never executed
  EXPECT_EQ(pfs.read_count(), 0u);

  // A live deadline is honored normally.
  auto alive = read_request("/f");
  alive.deadline_ns = rpc::deadline_in(5s);
  EXPECT_EQ(server.handle(alive).code, StatusCode::kOk);
}

TEST(DeadlinePropagation, TotalDeadlineCapsRetriesAndReadDuration) {
  ClusterConfig config;
  // Enough nodes that the attempt bound (node_count + 1) cannot end the
  // read first — the deadline must be what stops it.
  config.node_count = 4;
  config.client.rpc_timeout = 20ms;
  config.client.total_deadline = 50ms;
  config.client.timeout_limit = 10;  // never flag: isolate the deadline
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(4, 64);
  cluster.warm_caches(paths);

  const NodeId owner = cluster.client(0).current_owner(paths[0]);
  cluster.transport().set_extra_latency(owner, 100ms);  // every attempt stalls

  const auto start = std::chrono::steady_clock::now();
  auto result = cluster.client(0).read_file(paths[0]);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(cluster.client(0).stats_snapshot().deadline_give_ups, 1u);
  // Legacy would burn attempts x rpc_timeout; the budget ends the read
  // near total_deadline (generous slack for slow CI).
  EXPECT_LT(elapsed, 500ms);
  cluster.transport().set_extra_latency(owner, 0ms);
}

TEST(RetryBudget, HedgingSelfDisablesWhenDrainedAndRecovers) {
  ClusterConfig config;
  config.node_count = 2;
  config.client.rpc_timeout = 100ms;
  config.client.timeout_limit = 10;
  config.client.hedge_reads = true;
  // Floor the hedge delay so fast reads never hedge; only the 40ms
  // injected stall does.
  config.client.hedge_min_delay = 5ms;
  config.client.retry_budget_ratio = 0.1;
  config.client.retry_budget_cap = 2.0;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(8, 64);
  cluster.warm_caches(paths);

  const NodeId owner = cluster.client(0).current_owner(paths[0]);
  const NodeId reader = owner == 0 ? 1 : 0;
  HvacClient& client = cluster.client(reader);

  // Slow owner: every read of paths[0] wants to hedge.  The cap funds
  // exactly 2 hedge legs; after that the bucket is dry and reads succeed
  // on the (slow) primary alone instead of doubling the load.
  cluster.transport().set_extra_latency(owner, 40ms);
  for (int i = 0; i < 4; ++i) {
    auto result = client.read_file(paths[0]);
    ASSERT_TRUE(result.is_ok()) << i;
  }
  auto stats = client.stats_snapshot();
  EXPECT_EQ(stats.hedges_launched, 2u);  // cap of 2, then denied
  EXPECT_GE(stats.retries_denied_by_budget, 2u);
  EXPECT_EQ(stats.timeouts, 0u);

  // Recovery: successes refill the bucket (0.1 per read) with no
  // operator action, and hedging re-enables by itself.
  cluster.transport().set_extra_latency(owner, 0ms);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.read_file(paths[0]).is_ok());
  }
  cluster.transport().set_extra_latency(owner, 40ms);
  ASSERT_TRUE(client.read_file(paths[0]).is_ok());
  stats = client.stats_snapshot();
  EXPECT_EQ(stats.hedges_launched, 3u);  // refilled bucket funded one more
  cluster.transport().set_extra_latency(owner, 0ms);
}

TEST(BusyHandling, BusyIsLivenessNeverSuspicionOrLatency) {
  // Regression contract for the whole PR: a node answering kBusy is
  // ALIVE.  It must never accrue timeout counts, never get flagged, and
  // never pollute the latency window the hedge/TTL policies feed on.
  rpc::Transport transport;
  PfsStore pfs;
  pfs.put("/f", "authoritative");
  ASSERT_TRUE(transport
                  .register_endpoint(0,
                                     [](const rpc::RpcRequest&) {
                                       rpc::RpcResponse response;
                                       response.code = StatusCode::kBusy;
                                       response.retry_after_ms = 1;
                                       return response;
                                     })
                  .is_ok());
  HvacClientConfig config;
  config.mode = FtMode::kHashRingRecache;
  config.busy_backoff_cap = 2ms;
  HvacClient client(0, transport, pfs, {0}, config);

  auto result = client.read_file("/f");
  ASSERT_TRUE(result.is_ok());  // terminal PFS fallback still serves
  EXPECT_EQ(result.value(), "authoritative");

  const auto stats = client.stats_snapshot();
  EXPECT_GE(stats.busy_rejections, 2u);  // every attempt bounced
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.nodes_flagged, 0u);
  EXPECT_EQ(stats.served_pfs_direct, 1u);
  EXPECT_EQ(client.node_health(0), NodeHealth::kHealthy);
  EXPECT_EQ(client.latency().count(), 0u);  // no latency sample from kBusy
}

TEST(ServerStats, SnapshotAndStatsOpCarryStormCounters) {
  PfsStore pfs;
  pfs.put("/f", "x");
  HvacServerConfig config;
  config.async_data_mover = false;
  config.pfs_singleflight = true;
  HvacServer server(0, pfs, config);

  auto expired = read_request("/f");
  expired.deadline_ns = rpc::deadline_clock_ns() - 1;
  (void)server.handle(expired);
  (void)server.handle(read_request("/f"));

  rpc::RpcRequest stats_op;
  stats_op.op = rpc::Op::kStats;
  const auto response = server.handle(stats_op);
  ASSERT_EQ(response.code, StatusCode::kOk);
  std::map<std::string, std::uint64_t> kv;
  {
    std::istringstream in(response.payload.to_string());
    std::string pair;
    while (in >> pair) {
      const auto eq = pair.find('=');
      ASSERT_NE(eq, std::string::npos) << pair;
      kv[pair.substr(0, eq)] = std::stoull(pair.substr(eq + 1));
    }
  }
  EXPECT_EQ(kv.at("expired_on_arrival"), 1u);
  EXPECT_EQ(kv.at("pfs_coalesced"), 0u);
  EXPECT_EQ(kv.at("pfs_breaker_open"), 0u);
  EXPECT_EQ(kv.at("pfs_fetches"), 1u);

  const auto snapshot = server.stats_snapshot();
  EXPECT_EQ(snapshot.expired_on_arrival, 1u);
  EXPECT_EQ(snapshot.pfs_coalesced, 0u);
  EXPECT_EQ(snapshot.pfs_breaker_open, 0u);
}

TEST(ConfigValidation, ClientStormKnobs) {
  PfsStore pfs;
  rpc::Transport transport;
  const std::vector<NodeId> servers{0};

  HvacClientConfig bad_deadline;
  bad_deadline.rpc_timeout = 100ms;
  bad_deadline.total_deadline = 100ms;  // must EXCEED rpc_timeout
  EXPECT_FALSE(bad_deadline.validate().is_ok());
  EXPECT_THROW(HvacClient(0, transport, pfs, servers, bad_deadline),
               std::invalid_argument);

  HvacClientConfig bad_ratio;
  bad_ratio.retry_budget_ratio = 1.5;  // valid range is 0 or (0, 1]
  EXPECT_FALSE(bad_ratio.validate().is_ok());
  EXPECT_THROW(HvacClient(0, transport, pfs, servers, bad_ratio),
               std::invalid_argument);

  HvacClientConfig bad_cap;
  bad_cap.retry_budget_ratio = 0.1;
  bad_cap.retry_budget_cap = 0.5;  // < 1 token can never fund a retry
  EXPECT_FALSE(bad_cap.validate().is_ok());

  HvacClientConfig bad_backoff;
  bad_backoff.busy_backoff_cap = 0ms;  // below the 1 ms base step
  EXPECT_FALSE(bad_backoff.validate().is_ok());

  HvacClientConfig good;
  good.rpc_timeout = 50ms;
  good.total_deadline = 200ms;
  good.retry_budget_ratio = 0.1;
  good.retry_budget_cap = 10.0;
  EXPECT_TRUE(good.validate().is_ok());
}

TEST(ConfigValidation, ServerStormKnobs) {
  PfsStore pfs;

  HvacServerConfig bad_workers;
  bad_workers.endpoint_workers = 0;
  EXPECT_FALSE(bad_workers.validate().is_ok());
  EXPECT_THROW(HvacServer(0, pfs, bad_workers), std::invalid_argument);

  HvacServerConfig bad_queue;
  bad_queue.admission_control = true;
  bad_queue.admission_queue_limit = 0;
  EXPECT_FALSE(bad_queue.validate().is_ok());
  EXPECT_THROW(HvacServer(0, pfs, bad_queue), std::invalid_argument);

  HvacServerConfig bad_guard;
  bad_guard.pfs_singleflight = true;
  bad_guard.pfs_guard.max_concurrent_fetches = 0;
  EXPECT_FALSE(bad_guard.validate().is_ok());

  HvacServerConfig good;
  good.endpoint_workers = 4;
  good.admission_control = true;
  good.admission_queue_limit = 8;
  good.pfs_singleflight = true;
  EXPECT_TRUE(good.validate().is_ok());
}

}  // namespace
}  // namespace ftc::cluster
