// Reproduces Figure 5: end-to-end training time of NoFT / FT w/ PFS /
// FT w/ NVMe, (a) without failures and (b) with five random single-node
// failures injected after the first epoch, across 64-1024 nodes.
//
// Paper's shape targets:
//   (a) all systems speed up with node count; NoFT is slightly fastest
//       (no FT bookkeeping overhead);
//   (b) NoFT dies (dashed line = its no-failure time); FT w/ NVMe beats
//       FT w/ PFS — by 14.8% at 64 nodes and 24.9% at 1024 in the paper —
//       and both overheads grow with scale (fixed elastic-restart cost
//       looms larger as epochs shrink).
//
// Threaded prefetch phase (extension; runs after the DES sweep, or alone
// with prefetch_only=1): measures epochs/hour on the REAL threaded
// cluster under injected per-endpoint network latency, cold vs
// epoch-ahead prefetched, healthy and with a mid-epoch kill.  The exit
// code enforces the acceptance gates (>= 1.2x epochs/hour, steady-state
// epoch PFS reads == 0 with prefetch on, kill recovery via kPeerGet +
// warm standbys with zero extra PFS reads) and the run is written to
// out= (default BENCH_prefetch.json) for the checked-in baseline.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "common/string_util.hpp"
#include "dl/threaded_trainer.hpp"

namespace {

struct PrefetchRun {
  std::string name;
  bool completed = false;
  std::uint32_t restarts = 0;
  std::uint64_t total_pfs_reads = 0;
  std::vector<std::uint64_t> pfs_per_epoch;
  std::vector<double> epoch_seconds;
  /// Steady state = epochs >= 1 (epoch 0 is the PFS warm-up everywhere).
  double epochs_per_hour = 0.0;
  std::uint64_t prefetch_pulls = 0;
  std::uint64_t prefetch_local_hits = 0;
  std::uint64_t p2p_rescues = 0;
  std::uint64_t peer_gets = 0;  ///< server-side kPeerGet requests served
  std::uint64_t integrity_failures = 0;
};

enum class Scenario { kCold, kPrefetch, kKill };

/// The threaded prefetch phase's options; `cli` is read only while the
/// members initialise (and names the options in the artifact).
struct PrefetchOptions {
  explicit PrefetchOptions(const ftc::bench::Args& cli) : cli(cli) {}
  const ftc::bench::Args& cli;
  std::uint32_t nodes = cli.get_u32("pf_nodes", 8);
  std::uint32_t files = cli.get_u32("pf_files", 256);
  std::uint32_t file_kb = cli.get_u32("pf_file_kb", 64);
  std::uint32_t lat_ms = cli.get_u32("pf_lat_ms", 1);  ///< per endpoint
  std::uint32_t epochs = cli.get_u32("pf_epochs", 3);
  std::uint32_t rpc_timeout_ms = cli.get_u32("pf_rpc_timeout_ms", 25);
  std::uint32_t workers = cli.get_u32("pf_workers", 4);
  std::uint32_t pfs_us = cli.get_u32("pf_pfs_us", 500);
  std::uint32_t depth = cli.get_u32("pf_depth", 8);
  std::uint32_t kill_after = cli.get_u32("pf_kill_after", files / 6);
  std::string out = cli.get_string("out", "BENCH_prefetch.json");
};

PrefetchRun run_prefetch_scenario(Scenario scenario,
                                  const PrefetchOptions& opt) {
  using namespace ftc;
  const std::uint32_t nodes = opt.nodes;
  const std::uint32_t files = opt.files;
  const std::uint32_t file_bytes = opt.file_kb * 1024u;

  cluster::ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = cluster::FtMode::kHashRingRecache;
  config.client.rpc_timeout = std::chrono::milliseconds(opt.rpc_timeout_ms);
  // Multiple endpoint workers let concurrent prefetch pulls overlap their
  // injected latency — the whole point of the pipeline.
  config.server.endpoint_workers = opt.workers;
  config.pfs_read_latency = std::chrono::microseconds(opt.pfs_us);
  if (scenario != Scenario::kCold) {
    config.client.prefetch.enabled = true;
    config.client.prefetch.depth = opt.depth;
  }
  if (scenario == Scenario::kKill) {
    config.client.prefetch.p2p = true;
    config.client.replication.factor = 2;
    config.client.replication.warm_standby = true;
  }
  cluster::Cluster cluster(config);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    cluster.transport().set_extra_latency(
        n, std::chrono::milliseconds(opt.lat_ms));
  }
  const auto paths = cluster.stage_dataset(files, file_bytes);

  dl::ThreadedTrainingConfig train;
  train.epochs = opt.epochs;
  train.prefetch = (scenario != Scenario::kCold);
  if (scenario == Scenario::kKill) {
    dl::ThreadedTrainingConfig::Injection kill;
    kill.epoch = 1;
    kill.after_files = opt.kill_after;
    kill.victim = nodes - 1;
    train.injections = {kill};
  }
  const auto result =
      dl::run_threaded_training(cluster, paths, file_bytes, train);

  PrefetchRun run;
  run.name = scenario == Scenario::kCold        ? "cold"
             : scenario == Scenario::kPrefetch  ? "prefetched"
                                                : "prefetched+kill";
  run.completed = result.completed;
  run.restarts = result.restarts;
  run.total_pfs_reads = cluster.pfs().read_count();
  run.pfs_per_epoch = result.pfs_reads_per_epoch;
  run.epoch_seconds = result.epoch_seconds;
  run.integrity_failures = result.integrity_failures;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const auto client_stats = cluster.client(n).stats_snapshot();
    run.prefetch_pulls += client_stats.prefetch_pulls;
    run.prefetch_local_hits += client_stats.prefetch_local_hits;
    run.p2p_rescues += client_stats.p2p_rescues;
    run.peer_gets += cluster.server(n).stats_snapshot().peer_gets;
  }
  if (run.epoch_seconds.size() > 1) {
    double steady = 0.0;
    for (std::size_t e = 1; e < run.epoch_seconds.size(); ++e) {
      steady += run.epoch_seconds[e];
    }
    const double mean =
        steady / static_cast<double>(run.epoch_seconds.size() - 1);
    if (mean > 0.0) run.epochs_per_hour = 3600.0 / mean;
  }
  return run;
}

int run_prefetch_phase(const PrefetchOptions& opt) {
  using namespace ftc;
  std::fprintf(stderr, "[fig5] threaded prefetch phase: cold...\n");
  const auto cold = run_prefetch_scenario(Scenario::kCold, opt);
  std::fprintf(stderr, "[fig5] threaded prefetch phase: prefetched...\n");
  const auto warm = run_prefetch_scenario(Scenario::kPrefetch, opt);
  std::fprintf(stderr, "[fig5] threaded prefetch phase: prefetched+kill...\n");
  const auto kill = run_prefetch_scenario(Scenario::kKill, opt);
  const std::vector<PrefetchRun> runs = {cold, warm, kill};

  TextTable table({"Scenario", "Epochs/h (steady)", "PFS reads", "Pulls",
                   "Staged hits", "p2p rescues", "Peer gets", "Restarts"});
  for (const auto& run : runs) {
    table.add_row({run.name, format_double(run.epochs_per_hour, 1),
                   std::to_string(run.total_pfs_reads),
                   std::to_string(run.prefetch_pulls),
                   std::to_string(run.prefetch_local_hits),
                   std::to_string(run.p2p_rescues),
                   std::to_string(run.peer_gets),
                   std::to_string(run.restarts)});
  }
  bench::print_table(
      "Threaded epoch-ahead prefetch: epochs/hour at " +
          std::to_string(opt.nodes) + " nodes (injected " +
          std::to_string(opt.lat_ms) + "ms/endpoint latency)",
      table);

  bench::Gate gate;
  gate.check(cold.completed && warm.completed && kill.completed,
             "all three scenarios completed");
  gate.check(warm.epochs_per_hour >= 1.2 * cold.epochs_per_hour,
             "prefetched epochs/hour %.0f vs 1.2x cold %.0f",
             warm.epochs_per_hour, 1.2 * cold.epochs_per_hour);
  bool steady_zero = warm.pfs_per_epoch.size() >= 2;
  for (std::size_t e = 1; e < warm.pfs_per_epoch.size(); ++e) {
    steady_zero = steady_zero && warm.pfs_per_epoch[e] == 0;
  }
  gate.check(steady_zero, "prefetched steady-state epoch PFS reads == 0");
  gate.check(kill.restarts >= 1,
             "mid-epoch kill triggered an elastic restart");
  gate.check(kill.total_pfs_reads == opt.files,
             "kill recovered with zero PFS reads beyond warm-up (%llu reads "
             "for %u files)",
             static_cast<unsigned long long>(kill.total_pfs_reads),
             opt.files);
  gate.check(kill.peer_gets > 0, "kPeerGet exercised (prefetch pulls / p2p)");
  gate.check(cold.integrity_failures + warm.integrity_failures +
                     kill.integrity_failures ==
                 0,
             "zero integrity failures");

  std::vector<bench::Json> scenarios;
  for (const auto& run : runs) {
    std::vector<bench::Json> pfs_per_epoch(run.pfs_per_epoch.begin(),
                                           run.pfs_per_epoch.end());
    scenarios.push_back(
        {{"name", run.name},
         {"completed", run.completed},
         {"restarts", run.restarts},
         {"epochs_per_hour", run.epochs_per_hour},
         {"total_pfs_reads", run.total_pfs_reads},
         {"pfs_reads_per_epoch", bench::Json::array(pfs_per_epoch)},
         {"prefetch_pulls", run.prefetch_pulls},
         {"staged_hits", run.prefetch_local_hits},
         {"p2p_rescues", run.p2p_rescues},
         {"server_peer_gets", run.peer_gets},
         {"integrity_failures", run.integrity_failures}});
  }
  bench::Json doc = bench::artifact("fig5_prefetch", opt.cli);
  doc.set("pass", gate.passed());
  doc.set("scenarios", bench::Json::array(scenarios));
  bench::write_json(opt.out, doc);
  std::printf(
      "expected: epoch-ahead kPeerGet pulls overlap the injected latency "
      "that cold demand reads pay serially; the kill epoch recovers from "
      "warm standbys over kPeerGet, never the PFS\n");
  return gate.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftc;
  using cluster::FtMode;
  const bench::Args args(argc, argv);
  const bool prefetch_only = args.get_bool("prefetch_only", false);
  const auto scales = bench::scales_from(args);
  const auto failure_count = static_cast<std::uint32_t>(
      args.get_int("failures", 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("fail_seed", 42));
  // The paper repeats each experiment three times.
  const auto trials = static_cast<std::uint32_t>(args.get_int("trials", 3));
  // The paper's drains land shortly after epoch boundaries (cache fully
  // populated, little compute in flight); compress the in-epoch position
  // accordingly.  fail_fraction_scale=1 restores uniform.
  const double fraction_scale = args.get_double("fail_fraction_scale", 0.3);
  const bool verbose = args.get_bool("verbose", false);
  const bench::PaperConfig paper_config(args);
  const PrefetchOptions prefetch(args);
  args.finish();
  if (prefetch_only) return run_prefetch_phase(prefetch);

  struct Row {
    std::uint32_t nodes;
    double no_fail[3];     // mean minutes per mode
    double no_fail_sd[3];
    double with_fail[3];   // mean minutes (NoFT: <0 = DNF)
    double with_fail_sd[3];
  };
  std::vector<Row> rows;

  const FtMode kModes[3] = {FtMode::kNone, FtMode::kPfsRedirect,
                            FtMode::kHashRingRecache};

  for (const std::uint32_t nodes : scales) {
    Row row{};
    row.nodes = nodes;
    for (int m = 0; m < 3; ++m) {
      const auto config = paper_config(nodes, kModes[m]);
      const auto clean = destim::run_experiment_trials(config, trials);
      row.no_fail[m] =
          clean.completed > 0 ? clean.total_minutes.mean() : -1.0;
      row.no_fail_sd[m] = clean.total_minutes.stddev();

      auto failure_config = config;
      cluster::FailurePlanParams plan;
      plan.node_count = nodes;
      plan.failure_count = failure_count;
      plan.first_eligible_epoch = 1;
      plan.total_epochs = config.epochs;
      plan.seed = seed;
      failure_config.failures = cluster::plan_failures(plan);
      for (auto& failure : failure_config.failures) {
        failure.epoch_fraction *= fraction_scale;
      }
      const auto faulty =
          destim::run_experiment_trials(failure_config, trials);
      row.with_fail[m] =
          faulty.completed > 0 ? faulty.total_minutes.mean() : -1.0;
      row.with_fail_sd[m] = faulty.total_minutes.stddev();
      const auto& failed_run = faulty.results.front();
      if (verbose && failed_run.completed) {
        for (const auto& epoch : failed_run.epochs) {
          std::fprintf(stderr,
                       "[fig5] n=%u mode=%d epoch=%u dur=%.2fs attempts=%u "
                       "pfs=%llu remote_hit=%llu miss=%llu timeouts=%llu\n",
                       nodes, m, epoch.epoch,
                       simtime::to_seconds(epoch.duration), epoch.attempts,
                       static_cast<unsigned long long>(epoch.pfs_reads),
                       static_cast<unsigned long long>(epoch.remote_hits),
                       static_cast<unsigned long long>(epoch.remote_misses),
                       static_cast<unsigned long long>(epoch.timeouts));
        }
      }
    }
    rows.push_back(row);
    std::fprintf(stderr, "[fig5] scale %u done\n", nodes);
  }

  TextTable table_a({"Nodes", "NoFT (min)", "FT w/ PFS (min)",
                     "FT w/ NVMe (min)", "+- sd", "FT overhead vs NoFT %"});
  for (const auto& row : rows) {
    const double overhead =
        row.no_fail[0] > 0
            ? 100.0 * (row.no_fail[2] - row.no_fail[0]) / row.no_fail[0]
            : 0.0;
    table_a.add_row({std::to_string(row.nodes),
                     format_double(row.no_fail[0], 2),
                     format_double(row.no_fail[1], 2),
                     format_double(row.no_fail[2], 2),
                     format_double(row.no_fail_sd[2], 3),
                     format_double(overhead, 2)});
  }
  bench::print_table(
      "Figure 5(a): end-to-end training time, no failures (simulated min)",
      table_a);

  TextTable table_b({"Nodes", "NoFT", "FT w/ PFS (min)", "FT w/ NVMe (min)",
                     "+- sd", "PFS +% vs no-fail", "NVMe +% vs no-fail",
                     "NVMe vs PFS gain %"});
  for (const auto& row : rows) {
    const double pfs_overhead =
        100.0 * (row.with_fail[1] - row.no_fail[1]) / row.no_fail[1];
    const double nvme_overhead =
        100.0 * (row.with_fail[2] - row.no_fail[2]) / row.no_fail[2];
    const double gain =
        100.0 * (row.with_fail[1] - row.with_fail[2]) / row.with_fail[1];
    table_b.add_row({std::to_string(row.nodes),
                     row.with_fail[0] < 0 ? "DNF (job aborted)"
                                          : format_double(row.with_fail[0], 2),
                     format_double(row.with_fail[1], 2),
                     format_double(row.with_fail[2], 2),
                     format_double(row.with_fail_sd[2], 3),
                     format_double(pfs_overhead, 1),
                     format_double(nvme_overhead, 1),
                     format_double(gain, 1)});
  }
  bench::print_table(
      "Figure 5(b): end-to-end training time with " +
          std::to_string(failure_count) + " failures after epoch 1",
      table_b);

  std::printf(
      "paper reference (b): FT w/ PFS +32.2%% @64 -> +68.7%% @1024 vs "
      "no-failure; FT w/ NVMe +12.5%% -> +26.7%%; NVMe beats PFS by 14.8%% "
      "@64 and 24.9%% @1024; NoFT aborts on failure (dashed line)\n");
  return run_prefetch_phase(prefetch);
}
