// bench_partition.cpp - split-brain drill: an 8-node cluster suffers a
// 60/40 asymmetric network partition mid-run, heals, and reconciles.
//
// The partition-tolerance claims under test (all knob-gated, all on here):
//
//   quorum suspicion    membership.suspicion_quorum = 4: the 3-node
//                       minority can muster at most 3 distinct accusers,
//                       so it defers every confirmation and never evicts
//                       the healthy majority from its ring (no split-brain
//                       ring divergence).  The 5-node majority reaches
//                       quorum and legitimately confirms the minority out.
//   write fencing       fencing.enabled = true: once the majority burns
//                       ring epochs, any mutating RPC stamped with an older
//                       epoch is refused kFencedEpoch instead of landing on
//                       a replica chain the sender no longer owns.  The
//                       refusal carries a kStaleView delta, so the stale
//                       client fast-forwards in the same round trip.
//   reconciliation      after heal_partition() the minority fast-forwards,
//                       refutes its own confirmations (incarnation bump +
//                       allow_rejoin reinstatement), and the lazy re-target
//                       machinery re-pushes warm standby chains that moved
//                       while the views diverged (reconcile_repushes).
//
// Two phases, same config:
//
//   single_kill   crash-stop one node, measure kill -> all-survivor
//                 convergence.  This is the baseline the post-heal
//                 convergence gate is scored against.
//   partition     healthy goodput window -> partition {majority}|{minority}
//                 -> majority detects/excludes the minority -> measured
//                 majority goodput window -> heal -> all-8 convergence.
//                 A background thread drives the minority clients the whole
//                 time (their reads are the divergent suffix; post-heal
//                 they read a fresh unwarmed batch so stale-epoch standby
//                 pushes actually happen and meet the fence).
//
// Gates (exit 0 only if all pass), recorded in BENCH_partition.json:
//
//   availability   majority goodput under partition >= 99% of healthy
//                  goodput (measured after the majority has excluded the
//                  minority — detection itself is reported separately);
//   zero_stale     no server accepted a stale-epoch mutating RPC;
//   false_confirm  minority agents confirmed <= 1 healthy majority node;
//   heal           all 8 nodes reconverge within 2x the single-kill
//                  convergence time.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/failure_injector.hpp"
#include "membership/member_table.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ftc::NodeId;
using ftc::cluster::Cluster;
using ftc::cluster::ClusterConfig;
using ftc::cluster::FtMode;
using ftc::cluster::GrayFailureInjector;
using ftc::membership::MemberState;

/// The bench's options; `cli` is read only while the members initialise.
struct Options {
  explicit Options(const ftc::bench::Args& cli) : cli(cli) {}
  const ftc::bench::Args& cli;
  std::uint32_t nodes = cli.get_u32("nodes", 8);
  std::uint32_t files = cli.get_u32("files", 48);
  /// Staged but unwarmed; read post-heal.
  std::uint32_t fresh_files = cli.get_u32("fresh_files", 16);
  std::uint32_t file_kb = cli.get_u32("file_kb", 32);
  /// Goodput-window iterations (per client).
  std::uint32_t passes = cli.get_u32("passes", 300);
  /// A read slower than this is availability lost.
  double slo_ms = cli.get_double("slo_ms", 5.0);
  std::uint32_t probe_period_ms = cli.get_u32("probe_period_ms", 10);
  std::uint32_t quorum = cli.get_u32("quorum", 4);
  std::uint32_t timeout_s = cli.get_u32("timeout_s", 20);
  std::string out = cli.get_string("out", "BENCH_partition.json");
};

ClusterConfig make_config(const Options& args) {
  ClusterConfig config;
  config.node_count = args.nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = std::chrono::milliseconds(50);
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.client.replication.factor = 2;
  config.client.replication.warm_standby = true;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 1ULL << 32;
  config.server.fencing.enabled = true;
  config.membership.enabled = true;
  config.membership.background = true;
  config.membership.probe_period =
      std::chrono::milliseconds(args.probe_period_ms);
  config.membership.probe_timeout = std::chrono::milliseconds(25);
  config.membership.indirect_timeout = std::chrono::milliseconds(60);
  config.membership.suspicion_periods = 3;
  config.membership.suspicion_quorum = args.quorum;
  config.membership.allow_rejoin = true;
  config.membership.seed = 17;
  return config;
}

bool survivors_converged(Cluster& cluster, NodeId victim) {
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

/// The majority agrees among itself that every minority node is out.
bool majority_excluded(Cluster& cluster, const std::vector<NodeId>& majority,
                       const std::vector<NodeId>& minority) {
  bool first = true;
  std::uint64_t epoch = 0;
  std::uint64_t fingerprint = 0;
  for (const NodeId n : majority) {
    auto& agent = cluster.membership(n);
    for (const NodeId m : minority) {
      if (agent.is_serving(m)) return false;
    }
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

/// Every agent serves every node again and all views agree.
bool all_rejoined(Cluster& cluster) {
  bool first = true;
  std::uint64_t epoch = 0;
  std::uint64_t fingerprint = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    auto& agent = cluster.membership(n);
    for (NodeId m = 0; m < cluster.node_count(); ++m) {
      if (!agent.is_serving(m)) return false;
    }
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

/// Phase A: crash-stop the last node, measure kill -> survivor convergence.
struct KillResult {
  bool converged = false;
  double convergence_ms = 0.0;
};

KillResult run_single_kill(const Options& args) {
  KillResult result;
  Cluster cluster(make_config(args));
  const auto paths = cluster.stage_dataset(args.files, args.file_kb * 1024);
  cluster.warm_caches(paths);
  cluster.transport().drain_async();

  GrayFailureInjector injector(cluster.transport(), /*seed=*/3);
  const NodeId victim = static_cast<NodeId>(args.nodes - 1);
  injector.kill(victim);
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::seconds(args.timeout_s);
  std::size_t cursor = 0;
  while (Clock::now() < deadline) {
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      if (n == victim) continue;
      (void)cluster.client(n).read_file(paths[(cursor + n) % paths.size()]);
    }
    ++cursor;
    if (survivors_converged(cluster, victim)) {
      result.converged = true;
      result.convergence_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.transport().drain_async();
  return result;
}

/// Phase B bookkeeping.
struct PartitionResult {
  double healthy_good_fraction = 0.0;
  double partition_good_fraction = 0.0;
  double healthy_goodput_rps = 0.0;
  double partition_goodput_rps = 0.0;
  double availability_ratio = 0.0;
  double majority_detect_ms = 0.0;
  bool majority_detected = false;
  std::uint64_t false_confirms = 0;  ///< (minority agent, majority node)
  std::uint64_t confirms_deferred = 0;   ///< minority-side quorum holds
  std::uint64_t false_suspicions = 0;    ///< accusations later refuted
  double post_heal_ms = 0.0;
  bool healed = false;
  std::uint64_t fenced_writes = 0;
  std::uint64_t fenced_puts = 0;
  std::uint64_t stale_epoch_puts_accepted = 0;
  std::uint64_t reconcile_repushes = 0;
  std::uint64_t majority_reads_ok = 0;
  std::uint64_t majority_reads_failed = 0;
  std::uint64_t minority_reads_ok = 0;
  std::uint64_t minority_reads_failed = 0;
};

/// Unmeasured steady-state sweep: every majority client touches every path
/// once.  Run before each goodput window so one-time work (first-touch warm
/// markings before the split; successor recaches and warm chain re-targets
/// after it) is adoption cost, not availability loss — detection and
/// adoption are reported on their own, the gate scores steady serving.
void adoption_sweep(Cluster& cluster, const std::vector<NodeId>& majority,
                    const std::vector<std::string>& paths,
                    PartitionResult& result) {
  for (const NodeId n : majority) {
    for (const auto& path : paths) {
      if (cluster.client(n).read_file(path).is_ok()) {
        ++result.majority_reads_ok;
      } else {
        ++result.majority_reads_failed;
      }
    }
  }
}

/// One measured goodput window: `passes` iterations, one read per majority
/// client per iteration, striding the warm dataset.  A read counts toward
/// goodput only if it succeeds within `slo_ms` — 50x the warm-hit latency
/// yet far under the timeout a partition inflicts, so a read that burned a
/// cross-partition retry is availability LOST even though it eventually
/// returned ok.  The gate compares SLO-good fractions (deterministic),
/// while reads/sec is reported for context (wall-clock, scheduler-noisy).
struct GoodputWindow {
  double good_fraction = 0.0;
  double reads_per_sec = 0.0;
};

GoodputWindow goodput_window(Cluster& cluster,
                             const std::vector<NodeId>& majority,
                             const std::vector<std::string>& paths,
                             std::uint32_t passes, double slo_ms,
                             PartitionResult& result) {
  GoodputWindow window;
  std::size_t cursor = 0;
  std::uint64_t good = 0;
  std::uint64_t total = 0;
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < passes; ++i) {
    for (const NodeId n : majority) {
      const auto start = Clock::now();
      const bool ok =
          cluster.client(n).read_file(paths[(cursor + n) % paths.size()])
              .is_ok();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      ++total;
      if (ok) {
        ++result.majority_reads_ok;
        if (ms <= slo_ms) ++good;
      } else {
        ++result.majority_reads_failed;
      }
    }
    ++cursor;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  window.good_fraction =
      total > 0 ? static_cast<double>(good) / static_cast<double>(total)
                : 0.0;
  window.reads_per_sec =
      secs > 0.0 ? static_cast<double>(total) / secs : 0.0;
  return window;
}

PartitionResult run_partition(const Options& args) {
  PartitionResult result;
  Cluster cluster(make_config(args));
  const auto all_paths = cluster.stage_dataset(
      args.files + args.fresh_files, args.file_kb * 1024);
  const std::vector<std::string> paths(all_paths.begin(),
                                       all_paths.begin() + args.files);
  const std::vector<std::string> fresh(all_paths.begin() + args.files,
                                       all_paths.end());
  cluster.warm_caches(paths);
  cluster.transport().drain_async();

  // 60/40 asymmetric split: the last 3/8 of the nodes form the minority.
  const std::uint32_t minority_count = std::max(1u, args.nodes * 3 / 8);
  std::vector<NodeId> majority;
  std::vector<NodeId> minority;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (n + minority_count >= args.nodes) minority.push_back(n);
    else majority.push_back(n);
  }

  // Background load on the minority side for the whole drill: its reads
  // during the split are the divergent suffix; once `healed` flips it also
  // reads the fresh batch, whose warm standby pushes are the stale-epoch
  // writes the fence must refuse.
  std::atomic<bool> stop{false};
  std::atomic<bool> healed{false};
  std::atomic<std::uint64_t> min_ok{0};
  std::atomic<std::uint64_t> min_failed{0};
  std::thread minority_load([&] {
    std::size_t cursor = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const NodeId n : minority) {
        const auto& path = paths[(cursor + n) % paths.size()];
        if (cluster.client(n).read_file(path).is_ok()) ++min_ok;
        else ++min_failed;
        if (healed.load(std::memory_order_relaxed)) {
          const auto& fresh_path = fresh[(cursor + n) % fresh.size()];
          if (cluster.client(n).read_file(fresh_path).is_ok()) ++min_ok;
          else ++min_failed;
        }
      }
      ++cursor;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Healthy goodput window.  Two sweeps plus a settle pause let first-touch
  // warm markings and the paced write-behind queue finish before
  // measurement starts.  (No drain_async here: the minority thread is a
  // continuous async producer, so a drain would never return.)
  adoption_sweep(cluster, majority, paths, result);
  adoption_sweep(cluster, majority, paths, result);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const GoodputWindow healthy =
      goodput_window(cluster, majority, paths, args.passes, args.slo_ms,
                     result);
  result.healthy_good_fraction = healthy.good_fraction;
  result.healthy_goodput_rps = healthy.reads_per_sec;

  // Split the fabric (symmetric cut; the asymmetry is in the side sizes).
  GrayFailureInjector injector(cluster.transport(), /*seed=*/3);
  injector.partition(minority, majority);
  const auto t_split = Clock::now();

  // Detection grace: drive majority reads until the majority has excluded
  // the whole minority and agrees on the resulting ring.
  const auto detect_deadline = t_split + std::chrono::seconds(args.timeout_s);
  std::size_t cursor = 0;
  while (Clock::now() < detect_deadline) {
    for (const NodeId n : majority) {
      if (cluster.client(n).read_file(paths[(cursor + n) % paths.size()])
              .is_ok()) {
        ++result.majority_reads_ok;
      } else {
        ++result.majority_reads_failed;
      }
    }
    ++cursor;
    if (majority_excluded(cluster, majority, minority)) {
      result.majority_detected = true;
      result.majority_detect_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t_split)
              .count();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Measured majority window under the (detected) partition.  Two sweeps
  // plus a settle pause: epoch-change standby re-pushes are paced by
  // replication.restore_concurrency, so one pass only starts the repair —
  // the remainder must not leak into the measured window as availability
  // loss (it is adoption work, like the detection grace above).
  adoption_sweep(cluster, majority, paths, result);
  adoption_sweep(cluster, majority, paths, result);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const GoodputWindow split =
      goodput_window(cluster, majority, paths, args.passes, args.slo_ms,
                     result);
  result.partition_good_fraction = split.good_fraction;
  result.partition_goodput_rps = split.reads_per_sec;
  result.availability_ratio =
      result.healthy_good_fraction > 0.0
          ? result.partition_good_fraction / result.healthy_good_fraction
          : 0.0;

  // Pre-heal split-brain audit: how many healthy majority nodes did the
  // quorum-starved minority confirm dead?  (The gate allows at most 1.)
  for (const NodeId m : minority) {
    auto& agent = cluster.membership(m);
    for (const NodeId n : majority) {
      if (agent.member_state(n) == MemberState::kFailed) {
        ++result.false_confirms;
      }
    }
    result.confirms_deferred += agent.stats_snapshot().confirms_deferred;
  }

  // Heal and reconcile: the minority fast-forwards, refutes its own
  // confirmations, and rejoins; warm chains that moved get re-pushed.
  injector.heal_partition();
  healed.store(true, std::memory_order_relaxed);
  const auto t_heal = Clock::now();
  const auto heal_deadline = t_heal + std::chrono::seconds(args.timeout_s);
  while (Clock::now() < heal_deadline) {
    for (const NodeId n : majority) {
      if (cluster.client(n).read_file(paths[(cursor + n) % paths.size()])
              .is_ok()) {
        ++result.majority_reads_ok;
      } else {
        ++result.majority_reads_failed;
      }
    }
    ++cursor;
    if (all_rejoined(cluster)) {
      result.healed = true;
      result.post_heal_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t_heal)
              .count();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!result.healed) {
    // Diagnose the stuck view so a CI failure is actionable.
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      auto& agent = cluster.membership(n);
      std::string serving;
      for (NodeId m = 0; m < cluster.node_count(); ++m) {
        serving += agent.is_serving(m) ? '1' : '0';
      }
      std::fprintf(stderr,
                   "  heal timeout: node %u epoch=%llu fp=%016llx "
                   "serving=%s\n",
                   static_cast<unsigned>(n),
                   static_cast<unsigned long long>(agent.epoch()),
                   static_cast<unsigned long long>(agent.ring_fingerprint()),
                   serving.c_str());
    }
  }

  // Let the minority thread sweep the fresh batch against the healed ring
  // (stale pushes -> fences -> fast-forward -> re-pushes), then settle.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  minority_load.join();
  cluster.transport().drain_async();
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    (void)cluster.client(n).read_file(paths[n % paths.size()]);
  }
  cluster.transport().drain_async();

  result.minority_reads_ok = min_ok.load();
  result.minority_reads_failed = min_failed.load();
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto server = cluster.server(n).stats_snapshot();
    result.fenced_writes += server.fenced_writes;
    result.stale_epoch_puts_accepted += server.stale_epoch_puts_accepted;
    const auto client = cluster.client(n).stats_snapshot();
    result.fenced_puts += client.fenced_puts;
    result.reconcile_repushes += client.reconcile_repushes;
    result.false_suspicions +=
        cluster.membership(n).stats_snapshot().false_suspicions;
  }
  return result;
}

ftc::bench::Json partition_json(const PartitionResult& p) {
  return {{"healthy_good_fraction", p.healthy_good_fraction},
          {"partition_good_fraction", p.partition_good_fraction},
          {"availability_ratio", p.availability_ratio},
          {"healthy_goodput_rps", p.healthy_goodput_rps},
          {"partition_goodput_rps", p.partition_goodput_rps},
          {"majority_detected", p.majority_detected},
          {"majority_detect_ms", p.majority_detect_ms},
          {"false_confirms", p.false_confirms},
          {"confirms_deferred", p.confirms_deferred},
          {"healed", p.healed},
          {"post_heal_ms", p.post_heal_ms}};
}

ftc::bench::Json fencing_json(const PartitionResult& p) {
  return {{"fenced_writes", p.fenced_writes},
          {"fenced_puts", p.fenced_puts},
          {"stale_epoch_puts_accepted", p.stale_epoch_puts_accepted},
          {"reconcile_repushes", p.reconcile_repushes},
          {"false_suspicions", p.false_suspicions}};
}

}  // namespace

int main(int argc, char** argv) {
  const ftc::bench::Args cli(argc, argv);
  const Options args(cli);
  cli.finish();
  if (args.nodes < 4) cli.fail("nodes must be >= 4 for an asymmetric split");

  std::printf("phase A: single-kill convergence baseline...\n");
  const KillResult kill = run_single_kill(args);
  std::printf("single_kill   converged=%s  t=%7.1f ms\n",
              kill.converged ? "yes" : "NO", kill.convergence_ms);

  std::printf("phase B: asymmetric partition + heal...\n");
  const PartitionResult p = run_partition(args);
  std::printf("partition     slo-good %.4f -> %.4f (ratio %.4f)  "
              "%.0f -> %.0f rps  detect=%.1f ms\n",
              p.healthy_good_fraction, p.partition_good_fraction,
              p.availability_ratio, p.healthy_goodput_rps,
              p.partition_goodput_rps, p.majority_detect_ms);
  std::printf("split-brain   false_confirms=%llu  confirms_deferred=%llu\n",
              static_cast<unsigned long long>(p.false_confirms),
              static_cast<unsigned long long>(p.confirms_deferred));
  std::printf("fencing       fenced_writes=%llu  stale_accepted=%llu  "
              "reconcile_repushes=%llu\n",
              static_cast<unsigned long long>(p.fenced_writes),
              static_cast<unsigned long long>(p.stale_epoch_puts_accepted),
              static_cast<unsigned long long>(p.reconcile_repushes));
  std::printf("heal          healed=%s  t=%7.1f ms (bound %.1f ms)\n",
              p.healed ? "yes" : "NO", p.post_heal_ms,
              2.0 * kill.convergence_ms);

  const bool availability_ok =
      p.majority_detected && p.availability_ratio >= 0.99;
  const bool zero_stale_ok = p.stale_epoch_puts_accepted == 0;
  const bool false_confirm_ok = p.false_confirms <= 1;
  const bool heal_ok = kill.converged && p.healed &&
                       p.post_heal_ms <= 2.0 * kill.convergence_ms;
  ftc::bench::Json doc = ftc::bench::artifact("bench_partition", cli);
  doc.set("single_kill", {{"converged", kill.converged},
                          {"convergence_ms", kill.convergence_ms}});
  doc.set("partition", partition_json(p));
  doc.set("fencing", fencing_json(p));
  doc.set("reads", {{"majority_ok", p.majority_reads_ok},
                    {"majority_failed", p.majority_reads_failed},
                    {"minority_ok", p.minority_reads_ok},
                    {"minority_failed", p.minority_reads_failed}});
  doc.set("availability_ok", availability_ok);
  doc.set("zero_stale_ok", zero_stale_ok);
  doc.set("false_confirm_ok", false_confirm_ok);
  doc.set("heal_ok", heal_ok);
  ftc::bench::write_json(args.out, doc);

  ftc::bench::Gate gate;
  gate.check(availability_ok,
             "availability: majority detected=%d, SLO-good ratio %.4f, "
             "bound 0.99",
             p.majority_detected, p.availability_ratio);
  gate.check(zero_stale_ok, "zero_stale: %llu stale-epoch writes accepted",
             static_cast<unsigned long long>(p.stale_epoch_puts_accepted));
  gate.check(false_confirm_ok,
             "false_confirm: %llu healthy nodes confirmed dead, bound 1",
             static_cast<unsigned long long>(p.false_confirms));
  gate.check(heal_ok, "heal: healed=%d in %.1f ms, bound 2 x %.1f ms",
             p.healed, p.post_heal_ms, kill.convergence_ms);
  return gate.exit_code();
}
