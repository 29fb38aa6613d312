// bench_membership.cpp - SWIM membership vs client-local detection after a
// node kill: convergence time and duplicated failure-discovery work.
//
// The seed detects failures purely client-locally: every one of the N
// clients must burn TIMEOUT_LIMIT timed-out requests against the dead node
// before its private ring excludes it, so the cluster as a whole pays
// O(N * TIMEOUT_LIMIT) wasted RPCs and converges only when the SLOWEST
// client has finished rediscovering what the first one already knew.  The
// membership service detects once (SWIM probes on their own cadence),
// gossips the confirmation, and fast-forwards stale clients via the
// kStaleView delta — one detection serves everyone.
//
// Both phases run the same workload: 8 co-located clients reading a warm
// dataset with think-time pacing; one node is crash-stopped through the
// fault injector.  Measured per phase:
//
//   convergence_ms       kill -> every surviving client excludes the victim
//                        (baseline: detector probation on all clients;
//                        membership: all agents agree on serving set, epoch
//                        and ring fingerprint);
//   duplicate_recaches   data-plane requests that still landed on the dead
//                        node after the kill — each one is a client
//                        re-discovering an already-discoverable failure and
//                        re-triggering the recache path for keys the cluster
//                        has already moved (enqueue-side transport count, so
//                        discarded requests are included; SWIM protocol
//                        traffic is excluded and reported separately as
//                        protocol_requests — probes aimed at the victim are
//                        the detection mechanism, not duplicated work);
//   recache_pfs_fetches  PFS reads performed by surviving servers to adopt
//                        the victim's keys (expected_recaches = keys the
//                        victim owned; anything above it is duplicated PFS
//                        work).
//
// Writes BENCH_membership.json (override with out=...).  Exit 0 only if
// membership converges within `period_bound` probe periods AND beats the
// baseline strictly on both convergence time and duplicate count.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/failure_injector.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ftc::NodeId;
using ftc::cluster::Cluster;
using ftc::cluster::ClusterConfig;
using ftc::cluster::FtMode;
using ftc::cluster::GrayFailureInjector;
using ftc::cluster::NodeHealth;

/// The bench's options; `cli` is read only while the members initialise.
struct Options {
  explicit Options(const ftc::bench::Args& cli) : cli(cli) {}
  const ftc::bench::Args& cli;
  std::uint32_t nodes = cli.get_u32("nodes", 8);
  std::uint32_t files = cli.get_u32("files", 64);
  std::uint32_t file_kb = cli.get_u32("file_kb", 64);
  std::uint32_t think_ms = cli.get_u32("think_ms", 5);
  std::uint32_t probe_period_ms = cli.get_u32("probe_period_ms", 10);
  // Probe periods membership may take from kill to full convergence.
  double period_bound = cli.get_double("period_bound", 40.0);
  std::uint32_t timeout_s = cli.get_u32("timeout_s", 10);
  std::string out = cli.get_string("out", "BENCH_membership.json");
};

ClusterConfig make_config(const Options& args, bool membership) {
  ClusterConfig config;
  config.node_count = args.nodes;
  config.client.mode = FtMode::kHashRingRecache;
  // The data-path deadline is what each baseline client burns per
  // rediscovery; membership probes run on their own (shorter) timeouts.
  config.client.rpc_timeout = std::chrono::milliseconds(80);
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 1ULL << 32;
  if (membership) {
    config.membership.enabled = true;
    config.membership.background = true;
    config.membership.probe_period =
        std::chrono::milliseconds(args.probe_period_ms);
    config.membership.probe_timeout = std::chrono::milliseconds(25);
    config.membership.indirect_timeout = std::chrono::milliseconds(60);
    config.membership.suspicion_periods = 3;
    config.membership.seed = 17;
  }
  return config;
}

struct PhaseResult {
  std::string name;
  bool converged = false;
  double convergence_ms = 0.0;
  double probe_periods = 0.0;
  std::uint64_t duplicate_recaches = 0;  ///< dead-node data requests, kill+
  std::uint64_t protocol_requests = 0;   ///< dead-node SWIM requests, kill+
  std::uint64_t recache_pfs_fetches = 0;
  std::uint64_t expected_recaches = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_failed = 0;
};

bool baseline_converged(Cluster& cluster, NodeId victim) {
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (n == victim) continue;
    if (cluster.client(n).node_health(victim) != NodeHealth::kProbation) {
      return false;
    }
  }
  return true;
}

bool membership_converged(Cluster& cluster, NodeId victim) {
  bool first = true;
  std::uint64_t epoch = 0;
  std::uint64_t fingerprint = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (n == victim) continue;
    auto& agent = cluster.membership(n);
    if (agent.is_serving(victim)) return false;
    if (first) {
      epoch = agent.epoch();
      fingerprint = agent.ring_fingerprint();
      first = false;
      continue;
    }
    if (agent.epoch() != epoch) return false;
    if (agent.ring_fingerprint() != fingerprint) return false;
  }
  return true;
}

/// Kill `victim`, drive paced reads from every surviving client until the
/// cluster has converged on the failure, then one more full pass to expose
/// any post-convergence leakage toward the dead node.
PhaseResult run_phase(const Options& args, bool membership) {
  PhaseResult result;
  result.name = membership ? "membership" : "client_local";

  Cluster cluster(make_config(args, membership));
  const auto paths =
      cluster.stage_dataset(args.files, args.file_kb * 1024);
  cluster.warm_caches(paths);

  const NodeId victim = args.nodes - 1;
  for (const auto& path : paths) {
    if (cluster.client(0).current_owner(path) == victim) {
      ++result.expected_recaches;
    }
  }

  std::uint64_t pfs_before = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    pfs_before += cluster.server(n).stats_snapshot().pfs_fetches;
  }

  GrayFailureInjector injector(cluster.transport(), /*seed=*/3);
  cluster.transport().drain_async();
  const auto victim_rx_at_kill = cluster.transport().stats(victim);
  injector.kill(victim);
  const auto t0 = Clock::now();

  const auto deadline = t0 + std::chrono::seconds(args.timeout_s);
  const std::chrono::milliseconds think(args.think_ms);
  std::size_t cursor = 0;
  while (Clock::now() < deadline) {
    // One paced read per surviving client per iteration, striding the
    // dataset so victim-owned paths come up at the natural 1/N rate.
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      if (n == victim) continue;
      const auto& path = paths[(cursor + n) % paths.size()];
      if (cluster.client(n).read_file(path).is_ok()) {
        ++result.reads_ok;
      } else {
        ++result.reads_failed;
      }
    }
    ++cursor;
    const bool done = membership ? membership_converged(cluster, victim)
                                 : baseline_converged(cluster, victim);
    if (done) {
      result.converged = true;
      result.convergence_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      break;
    }
    std::this_thread::sleep_for(think);
  }
  result.probe_periods =
      result.convergence_ms / static_cast<double>(args.probe_period_ms);

  // Post-convergence pass: a converged cluster must route nothing more at
  // the dead node (counted at enqueue, so discarded requests show too).
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (n == victim) continue;
    for (const auto& path : paths) {
      if (cluster.client(n).read_file(path).is_ok()) {
        ++result.reads_ok;
      } else {
        ++result.reads_failed;
      }
    }
  }
  cluster.transport().drain_async();

  const auto victim_rx = cluster.transport().stats(victim);
  result.duplicate_recaches =
      victim_rx.received_data - victim_rx_at_kill.received_data;
  result.protocol_requests =
      (victim_rx.received - victim_rx.received_data) -
      (victim_rx_at_kill.received - victim_rx_at_kill.received_data);
  std::uint64_t pfs_after = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    pfs_after += cluster.server(n).stats_snapshot().pfs_fetches;
  }
  result.recache_pfs_fetches = pfs_after - pfs_before;
  return result;
}

ftc::bench::Json phase_json(const PhaseResult& p) {
  return {{"converged", p.converged},
          {"convergence_ms", p.convergence_ms},
          {"probe_periods", p.probe_periods},
          {"duplicate_recaches", p.duplicate_recaches},
          {"protocol_requests", p.protocol_requests},
          {"recache_pfs_fetches", p.recache_pfs_fetches},
          {"expected_recaches", p.expected_recaches},
          {"reads_ok", p.reads_ok},
          {"reads_failed", p.reads_failed}};
}

void print_phase(const PhaseResult& p) {
  std::printf("%-13s converged=%s  t=%7.1f ms (%5.1f periods)  "
              "dead-node data reqs=%4llu (+%llu swim)  pfs recaches=%llu/%llu"
              "  reads %llu ok %llu failed\n",
              p.name.c_str(), p.converged ? "yes" : "NO", p.convergence_ms,
              p.probe_periods,
              static_cast<unsigned long long>(p.duplicate_recaches),
              static_cast<unsigned long long>(p.protocol_requests),
              static_cast<unsigned long long>(p.recache_pfs_fetches),
              static_cast<unsigned long long>(p.expected_recaches),
              static_cast<unsigned long long>(p.reads_ok),
              static_cast<unsigned long long>(p.reads_failed));
}

}  // namespace

int main(int argc, char** argv) {
  const ftc::bench::Args cli(argc, argv);
  const Options args(cli);
  cli.finish();

  const PhaseResult baseline = run_phase(args, /*membership=*/false);
  const PhaseResult membership = run_phase(args, /*membership=*/true);

  const bool periods_ok = membership.converged &&
                          membership.probe_periods <= args.period_bound;
  const bool convergence_ok =
      membership.converged && baseline.converged &&
      membership.convergence_ms < baseline.convergence_ms;
  const bool duplicates_ok =
      membership.duplicate_recaches < baseline.duplicate_recaches;

  print_phase(baseline);
  print_phase(membership);
  ftc::bench::Json doc = ftc::bench::artifact("bench_membership", cli);
  doc.set("phases", {{baseline.name, phase_json(baseline)},
                     {membership.name, phase_json(membership)}});
  doc.set("membership_within_period_bound", periods_ok);
  doc.set("convergence_below_baseline", convergence_ok);
  doc.set("duplicates_below_baseline", duplicates_ok);
  ftc::bench::write_json(args.out, doc);

  ftc::bench::Gate gate;
  gate.check(periods_ok,
             "membership converged in %.1f probe periods, bound %.0f",
             membership.probe_periods, args.period_bound);
  gate.check(convergence_ok,
             "convergence %.1f ms, strictly below baseline %.1f ms",
             membership.convergence_ms, baseline.convergence_ms);
  gate.check(duplicates_ok,
             "duplicate recaches %llu, strictly below baseline %llu",
             static_cast<unsigned long long>(membership.duplicate_recaches),
             static_cast<unsigned long long>(baseline.duplicate_recaches));
  return gate.exit_code();
}
