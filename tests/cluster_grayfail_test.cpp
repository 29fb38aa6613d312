// Gray-failure tolerance: the health state machine (suspect -> probation
// -> reinstated / failed), hedged reads under a slow node, the
// programmable GrayFailureInjector, and config validation.  Cluster-level
// tests drive the real threaded transport; detector tests inject time
// explicitly so no sleeps are needed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/failure_injector.hpp"
#include "cluster/fault_detector.hpp"
#include "cluster/hvac_client.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig make_config(std::uint32_t nodes = 4) {
  ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 100ms;
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.client.probe_backoff = 5ms;
  config.client.probe_backoff_cap = 40ms;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 64 << 20;
  return config;
}

/// First staged path owned by `node` from `client`'s viewpoint.
std::string path_owned_by(Cluster& cluster, NodeId client, NodeId node,
                          const std::vector<std::string>& paths) {
  for (const auto& path : paths) {
    if (cluster.client(client).current_owner(path) == node) return path;
  }
  return {};
}

// ---------------------------------------------------------------------------
// FaultDetector state machine (injected time; no sleeps).
// ---------------------------------------------------------------------------

FaultDetector::Options probation_options() {
  FaultDetector::Options options;
  options.timeout_limit = 2;
  options.allow_reinstatement = true;
  options.probe_backoff = 10ms;
  options.probe_backoff_cap = 80ms;
  options.max_flaps = 2;
  return options;
}

TEST(GrayFaultDetector, SuspectThenProbationThenReinstated) {
  FaultDetector detector(probation_options());
  const auto t0 = FaultDetector::Clock::now();

  EXPECT_FALSE(detector.record_timeout(7, t0));
  EXPECT_EQ(detector.health(7), NodeHealth::kSuspect);
  EXPECT_FALSE(detector.is_out_of_service(7));

  EXPECT_TRUE(detector.record_timeout(7, t0));  // limit tripped
  EXPECT_EQ(detector.health(7), NodeHealth::kProbation);
  EXPECT_TRUE(detector.is_out_of_service(7));
  EXPECT_FALSE(detector.is_failed(7));  // probation is not terminal
  EXPECT_EQ(detector.probation_nodes(), std::vector<NodeId>{7});

  // Probe not due before the backoff elapses.
  EXPECT_TRUE(detector.probe_candidates(t0).empty());
  const auto due = t0 + 10ms;
  ASSERT_EQ(detector.probe_candidates(due).size(), 1u);
  detector.record_probe_launch(7, due);
  // Launch pushes the deadline out: no duplicate probe while in flight.
  EXPECT_TRUE(detector.probe_candidates(due).empty());

  EXPECT_TRUE(detector.record_probe_success(7));
  EXPECT_EQ(detector.health(7), NodeHealth::kHealthy);
  EXPECT_FALSE(detector.is_out_of_service(7));
  EXPECT_EQ(detector.reinstatements(), 1u);
  EXPECT_EQ(detector.flap_count(7), 1u);
}

TEST(GrayFaultDetector, ProbeBackoffDoublesToCap) {
  FaultDetector detector(probation_options());
  const auto t0 = FaultDetector::Clock::now();
  detector.record_timeout(3, t0);
  detector.record_timeout(3, t0);
  ASSERT_EQ(detector.health(3), NodeHealth::kProbation);

  // Failed probes escalate the deadline: 10, 20, 40, then capped at 80ms.
  auto now = t0;
  const std::chrono::milliseconds expected[] = {10ms, 20ms, 40ms, 80ms,
                                                80ms};
  for (const auto backoff : expected) {
    EXPECT_TRUE(detector.probe_candidates(now + backoff - 1ms).empty());
    ASSERT_EQ(detector.probe_candidates(now + backoff).size(), 1u);
    now += backoff;
    detector.record_probe_failure(3, now);
  }
  EXPECT_EQ(detector.health(3), NodeHealth::kProbation);  // never gives up
}

TEST(GrayFaultDetector, FlappingNodeEscalatesToTerminalFailure) {
  auto options = probation_options();
  options.max_flaps = 1;  // one reinstatement cycle allowed
  FaultDetector detector(options);
  const auto t0 = FaultDetector::Clock::now();

  detector.record_timeout(5, t0);
  detector.record_timeout(5, t0);
  ASSERT_EQ(detector.health(5), NodeHealth::kProbation);
  ASSERT_TRUE(detector.record_probe_success(5));
  ASSERT_EQ(detector.health(5), NodeHealth::kHealthy);

  // The node flaps: trips the limit again.  flaps >= max_flaps, so the
  // second probation request becomes a terminal failure.
  detector.record_timeout(5, t0);
  EXPECT_TRUE(detector.record_timeout(5, t0));
  EXPECT_EQ(detector.health(5), NodeHealth::kFailed);
  EXPECT_TRUE(detector.is_failed(5));
  // Terminal: no probes, no resurrection.
  EXPECT_TRUE(detector.probe_candidates(t0 + 1h).empty());
  EXPECT_FALSE(detector.record_probe_success(5));
  EXPECT_EQ(detector.health(5), NodeHealth::kFailed);
}

TEST(GrayFaultDetector, CrashStopConstructorDisablesReinstatement) {
  FaultDetector detector(1);  // legacy ctor = the paper's model
  EXPECT_TRUE(detector.record_timeout(2));
  EXPECT_EQ(detector.health(2), NodeHealth::kFailed);
  EXPECT_TRUE(detector.probe_candidates().empty());
}

TEST(GrayFaultDetector, HealthNames) {
  EXPECT_STREQ(node_health_name(NodeHealth::kHealthy), "healthy");
  EXPECT_STREQ(node_health_name(NodeHealth::kSuspect), "suspect");
  EXPECT_STREQ(node_health_name(NodeHealth::kProbation), "probation");
  EXPECT_STREQ(node_health_name(NodeHealth::kFailed), "failed");
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(HvacClientConfigValidate, AcceptsDefaults) {
  HvacClientConfig config;
  EXPECT_TRUE(config.validate().is_ok());
  EXPECT_TRUE(config.validate(4).is_ok());
}

TEST(HvacClientConfigValidate, RejectsOutOfRangeFields) {
  HvacClientConfig config;
  config.rpc_timeout = 0ms;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

  config = {};
  config.timeout_limit = 0;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

  config = {};
  config.vnodes_per_node = 0;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  // Static placement does not use vnodes; zero is fine there.
  config.mode = FtMode::kPfsRedirect;
  EXPECT_TRUE(config.validate().is_ok());

  config = {};
  config.replication.factor = 0;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config.replication.factor = 5;
  EXPECT_TRUE(config.validate().is_ok());  // cluster size unknown
  EXPECT_EQ(config.validate(4).code(), StatusCode::kInvalidArgument);

  // Warm standby needs a real factor, sane depths, and the ring mode.
  config = {};
  config.replication.warm_standby = true;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config.replication.factor = 2;
  EXPECT_TRUE(config.validate().is_ok());
  config.replication.write_behind_depth = 0;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config.replication.write_behind_depth = 64;
  config.replication.restore_concurrency = 0;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config.replication.restore_concurrency = 4;
  config.mode = FtMode::kPfsRedirect;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

  config = {};
  config.probe_backoff = 0ms;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config = {};
  config.probe_backoff_cap = 1ms;  // below the 50ms default base
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

  config = {};
  config.hedge_reads = true;
  config.hedge_quantile = 0.0;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config.hedge_quantile = 101.0;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config.hedge_quantile = 95.0;
  config.hedge_delay_multiplier = 0.5;
  EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
  config.hedge_delay_multiplier = 2.0;
  // Hedge knobs are ignored (not validated) when hedging is off.
  config.hedge_reads = false;
  EXPECT_TRUE(config.validate().is_ok());
}

TEST(HvacClientConfigValidate, ConstructorThrowsOnInvalidConfig) {
  rpc::Transport transport;
  PfsStore pfs;
  HvacClientConfig config;
  config.vnodes_per_node = 0;
  EXPECT_THROW(HvacClient(0, transport, pfs, {0, 1}, config),
               std::invalid_argument);
  config = {};
  config.replication.factor = 3;
  EXPECT_THROW(HvacClient(0, transport, pfs, {0, 1}, config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GrayFailureInjector.
// ---------------------------------------------------------------------------

TEST(GrayFailureInjector, FlapScheduleIsDeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    rpc::Transport transport;
    transport.register_endpoint(
        0, [](const rpc::RpcRequest&) { return rpc::RpcResponse{}; });
    GrayFailureInjector injector(transport, seed);
    injector.add_flap(0, /*down_ticks=*/2, /*up_ticks=*/3);
    std::vector<bool> down;
    for (int i = 0; i < 24; ++i) {
      injector.tick();
      down.push_back(injector.is_down(0));
    }
    transport.unregister_endpoint(0);
    return down;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_EQ(run(7), run(7));
}

TEST(GrayFailureInjector, FlapAlternatesDownAndUp) {
  rpc::Transport transport;
  transport.register_endpoint(
      0, [](const rpc::RpcRequest&) { return rpc::RpcResponse{}; });
  GrayFailureInjector injector(transport, 1);
  injector.add_flap(0, 1, 1);
  bool saw_down = false;
  bool saw_up = false;
  for (int i = 0; i < 8; ++i) {
    injector.tick();
    (injector.is_down(0) ? saw_down : saw_up) = true;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);
  EXPECT_GE(injector.flap_transitions(), 4u);
  // remove_flap while down must leave the node alive.
  injector.remove_flap(0);
  EXPECT_FALSE(injector.is_down(0));
  transport.unregister_endpoint(0);
}

TEST(GrayFailureInjector, SlowAndLossyComposeWithKill) {
  rpc::Transport transport;
  std::atomic<int> handled{0};
  transport.register_endpoint(0, [&](const rpc::RpcRequest&) {
    ++handled;
    return rpc::RpcResponse{};
  });
  GrayFailureInjector injector(transport, 9);

  injector.make_slow(0, 20ms);
  rpc::RpcRequest request;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(transport.call(0, request, 200ms).is_ok());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 20ms);
  injector.clear_slow(0);

  injector.make_lossy(0, 1.0);  // drop everything
  EXPECT_FALSE(transport.call(0, request, 20ms).is_ok());
  injector.clear_lossy(0);
  EXPECT_TRUE(transport.call(0, request, 200ms).is_ok());

  injector.kill(0);
  EXPECT_TRUE(injector.is_down(0));
  EXPECT_FALSE(transport.call(0, request, 20ms).is_ok());
  injector.revive(0);
  EXPECT_TRUE(transport.call(0, request, 200ms).is_ok());
  transport.unregister_endpoint(0);
}

// ---------------------------------------------------------------------------
// Hedged reads.
// ---------------------------------------------------------------------------

TEST(HedgedReads, SlowNodeIsMaskedAndAccountedOnce) {
  auto config = make_config();
  config.client.hedge_reads = true;
  config.client.hedge_min_delay = 200us;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(40, 64);
  cluster.warm_caches(paths);

  // Train the latency window on healthy reads first.
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  // (Scheduling jitter may trigger the odd spurious hedge even while
  // healthy; only the delta under the slow node is asserted below.)
  const auto baseline = cluster.client(0).stats_snapshot();

  // A gray failure: node 2 is alive but 30ms late — far beyond the hedge
  // delay, far below the 100ms rpc timeout, so it never trips detection.
  cluster.transport().set_extra_latency(2, 30ms);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  const auto stats = cluster.client(0).stats_snapshot();
  EXPECT_GT(stats.hedges_launched, baseline.hedges_launched);
  EXPECT_GT(stats.hedge_wins, 0u);  // the successor answered first
  EXPECT_FALSE(cluster.client(0).node_failed(2));  // still in the ring

  // Winner accounting: every hedged read resolved exactly one way, and
  // every read was served exactly once (no double count).
  EXPECT_EQ(stats.hedge_wins + stats.primary_wins_after_hedge +
                stats.hedges_to_pfs,
            stats.hedges_launched);
  EXPECT_EQ(stats.served_remote_cache + stats.served_remote_fetch +
                stats.served_pfs_direct,
            stats.reads);
}

TEST(HedgedReads, AdaptiveDelayTracksLatencyQuantile) {
  auto config = make_config();
  config.client.hedge_reads = true;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(20, 64);

  // Before enough samples: conservative fallback, a quarter of the
  // timeout.
  EXPECT_EQ(cluster.client(0).current_hedge_delay(),
            std::chrono::microseconds(config.client.rpc_timeout) / 4);

  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  // With in-process sub-millisecond reads the adaptive delay must now be
  // far below the fallback, and never above the rpc timeout.
  const auto delay = cluster.client(0).current_hedge_delay();
  EXPECT_LT(delay, std::chrono::microseconds(config.client.rpc_timeout) / 4);
  EXPECT_GE(delay, 1us);
}

// ---------------------------------------------------------------------------
// Client-level probation and reinstatement.
// ---------------------------------------------------------------------------

TEST(Reinstatement, RecoveredNodeRejoinsRingAndRecachesOnFirstTouch) {
  auto config = make_config();
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(40, 64);
  cluster.warm_caches(paths);

  const NodeId victim = 1;
  const auto victim_path = path_owned_by(cluster, 0, victim, paths);
  ASSERT_FALSE(victim_path.empty());
  // Owned by node 0 with the full ring: stays with node 0 whether or not
  // the victim is a member (surviving assignments are undisturbed).
  const auto driver_path = path_owned_by(cluster, 0, 0, paths);
  ASSERT_FALSE(driver_path.empty());

  cluster.fail_node(victim);
  ASSERT_TRUE(cluster.client(0).read_file(victim_path).is_ok());
  ASSERT_TRUE(cluster.client(0).node_failed(victim));
  EXPECT_EQ(cluster.client(0).node_health(victim), NodeHealth::kProbation);
  // Probation removed the node's vnodes: its keys moved to successors.
  EXPECT_NE(cluster.client(0).current_owner(victim_path), victim);

  // The node comes back with its NVMe state wiped (drain + reboot).
  cluster.restore_node(victim, /*lose_cache=*/true);
  ASSERT_EQ(cluster.server(victim).cached_file_count(), 0u);

  // Keep reading a file the victim does NOT own (so its cache stays
  // empty until the first-touch assertion below): maybe_probe launches
  // backoff probes, the mailbox folds the success in, and the node
  // returns via the elastic add path.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.client(0).stats_snapshot().nodes_reinstated == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)cluster.client(0).read_file(driver_path);
    std::this_thread::sleep_for(2ms);
  }
  const auto stats = cluster.client(0).stats_snapshot();
  ASSERT_GE(stats.nodes_reinstated, 1u);
  EXPECT_GE(stats.probes_sent, 1u);
  EXPECT_FALSE(cluster.client(0).node_failed(victim));
  EXPECT_EQ(cluster.client(0).node_health(victim), NodeHealth::kHealthy);

  // Ring ownership regained: the victim's old arc maps back to it.
  EXPECT_EQ(cluster.client(0).current_owner(victim_path), victim);

  // First touch after reinstatement recaches from the PFS.
  const auto misses_before =
      cluster.server(victim).stats_snapshot().cache_misses;
  ASSERT_TRUE(cluster.client(0).read_file(victim_path).is_ok());
  EXPECT_GT(cluster.server(victim).stats_snapshot().cache_misses,
            misses_before);
  cluster.server(victim).flush_data_mover();
  EXPECT_TRUE(cluster.server(victim).has_cached(victim_path));
}

TEST(Reinstatement, DisabledKeepsCrashStopSemantics) {
  auto config = make_config();
  config.client.reinstatement = false;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(30, 64);
  cluster.warm_caches(paths);

  const auto victim_path = path_owned_by(cluster, 0, 2, paths);
  ASSERT_FALSE(victim_path.empty());
  cluster.fail_node(2);
  ASSERT_TRUE(cluster.client(0).read_file(victim_path).is_ok());
  EXPECT_EQ(cluster.client(0).node_health(2), NodeHealth::kFailed);

  // Even after the node recovers, crash-stop never takes it back.
  cluster.restore_node(2);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.client(0).read_file(paths[i % paths.size()]);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(cluster.client(0).node_health(2), NodeHealth::kFailed);
  EXPECT_EQ(cluster.client(0).stats_snapshot().probes_sent, 0u);
}

TEST(Reinstatement, FlappingNodeIsRefusedAfterMaxFlaps) {
  Cluster cluster(make_config());
  const auto paths = cluster.stage_dataset(40, 64);
  cluster.warm_caches(paths);

  const NodeId victim = 1;
  const auto victim_path = path_owned_by(cluster, 0, victim, paths);
  ASSERT_FALSE(victim_path.empty());

  // Three comebacks are allowed: down -> probation -> reinstated.
  for (std::uint64_t cycle = 1; cycle <= 3; ++cycle) {
    cluster.fail_node(victim);
    ASSERT_TRUE(cluster.client(0).read_file(victim_path).is_ok());
    ASSERT_EQ(cluster.client(0).node_health(victim), NodeHealth::kProbation);
    cluster.restore_node(victim);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (cluster.client(0).stats_snapshot().nodes_reinstated < cycle &&
           std::chrono::steady_clock::now() < deadline) {
      (void)cluster.client(0).read_file(paths[0]);
      std::this_thread::sleep_for(2ms);
    }
    ASSERT_EQ(cluster.client(0).node_health(victim), NodeHealth::kHealthy);
  }

  // The fourth flap: now it is failed for good.
  cluster.fail_node(victim);
  ASSERT_TRUE(cluster.client(0).read_file(victim_path).is_ok());
  EXPECT_EQ(cluster.client(0).node_health(victim), NodeHealth::kFailed);
  EXPECT_TRUE(cluster.client(0).detector().is_failed(victim));
}

// ---------------------------------------------------------------------------
// Concurrency stress (TSan target): hedges, probes, and flaps at once.
// ---------------------------------------------------------------------------

TEST(GrayFailStress, ConcurrentClientsUnderFlappingAndSlowNodes) {
  auto config = make_config(4);
  config.client.hedge_reads = true;
  config.client.rpc_timeout = 50ms;
  config.client.probe_backoff = 2ms;
  config.client.probe_backoff_cap = 10ms;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(32, 128);
  cluster.warm_caches(paths);

  GrayFailureInjector injector(cluster.transport(), 1234);
  injector.make_slow(2, 5ms);

  // One thread per client (each HvacClient is single-threaded by
  // contract); the main thread plays adversary with a flap schedule.
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> failures{0};
  readers.reserve(cluster.node_count());
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    readers.emplace_back([&, n] {
      for (int round = 0; round < 4; ++round) {
        for (const auto& path : paths) {
          if (!cluster.client(n).read_file(path).is_ok()) ++failures;
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    if (i == 2) injector.add_flap(3, 1, 2);
    injector.tick();
    std::this_thread::sleep_for(3ms);
  }
  injector.remove_flap(3);
  for (auto& reader : readers) reader.join();

  // Every read must have been masked (ring mode always has the PFS as a
  // terminal fallback).
  EXPECT_EQ(failures.load(), 0u);
  std::uint64_t total_reads = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto stats = cluster.client(n).stats_snapshot();
    total_reads += stats.reads;
    EXPECT_EQ(stats.served_remote_cache + stats.served_remote_fetch +
                  stats.served_pfs_direct,
              stats.reads);
  }
  // 4 clients x 4 rounds, plus one warm-up read per path.
  EXPECT_EQ(total_reads, (4u * 4u + 1u) * paths.size());
}

}  // namespace
}  // namespace ftc::cluster
