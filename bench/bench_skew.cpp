// bench_skew.cpp - Zipf-skewed read benchmark for the skew-tolerant
// placement stack (bounded-load ring lookup + hot-file replica fanout).
//
// The figure benches measure what a *failure* does to placement; this one
// measures what a *workload* does.  N closed-loop clients hammer the
// threaded cluster with Zipf(alpha)-distributed reads over a scrambled id
// space while every server endpoint serves serially with a fixed service
// time — so the hottest node's queue is the bottleneck, exactly the regime
// bounded-load spill and hot-file fanout exist for.  Each alpha runs
// twice on identical clusters:
//
//   single_owner    every knob off — the seed's one-owner-per-key routing;
//   skew_tolerant   server load hints + bounded-load lookup + hot-file
//                   replica fanout with power-of-two-choices reads.
//
// Reported per run: goodput (successful reads/s), per-node served-request
// share (peak, mean, peak/mean), and the client-side skew counters.  With
// check_bound=1 the binary exits non-zero if, at alpha=1.1, the
// skew-tolerant run's peak node received more than bound_slack x c x the
// mean per-node request count — the CI smoke gate.  require_goodput=1
// additionally gates on the alpha=1.1 goodput ratio.
//
// Writes machine-readable BENCH_skew.json (override with out=...); embeds
// BENCH_skew.baseline.json as the "baseline" section when present.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "common/string_util.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ftc::cluster::Cluster;
using ftc::cluster::ClusterConfig;
using ftc::cluster::NodeId;

/// The bench's options; `cli` is read only while the members initialise.
struct Options {
  explicit Options(const ftc::bench::Args& cli) : cli(cli) {}
  const ftc::bench::Args& cli;
  std::uint32_t nodes = cli.get_u32("nodes", 8);
  std::uint32_t files = cli.get_u32("files", 4);
  std::uint32_t file_kb = cli.get_u32("file_kb", 64);
  /// Closed-loop client threads per node.  The first per node drives the
  /// cluster's co-located client; extras get standalone HvacClients on
  /// the same transport (each single-threaded, as the client requires).
  /// More threads deepen the hot node's queue, which is the effect under
  /// test — one closed-loop source per node barely queues.
  std::uint32_t threads_per_node = cli.get_u32("threads_per_node", 2);
  /// Measured reads per client thread.
  std::uint32_t reads = cli.get_u32("reads", 400);
  /// Unmeasured priming reads per client: builds heat, triggers
  /// promotion, and lets the kPut fanout land before the clock starts.
  std::uint32_t prime = cli.get_u32("prime", 200);
  /// Serial per-request service time at every endpoint (the queueing
  /// substrate that turns skew into a measurable bottleneck).
  std::uint32_t service_ms = cli.get_u32("service_ms", 5);
  std::uint32_t fanout = cli.get_u32("fanout", 4);
  double c = cli.get_double("c", 1.25);
  /// Promote/demote heat thresholds for the skew-tolerant runs (lower
  /// than the production defaults so priming passes promote quickly).
  double promote = cli.get_double("promote", 32.0);
  double demote = cli.get_double("demote", 8.0);
  std::vector<double> alphas =
      cli.get_double_list("alphas", {0.0, 0.8, 1.1, 1.4});
  /// Exit non-zero when the alpha=1.1 skew-tolerant peak share exceeds
  /// bound_slack x c x mean (the CI smoke gate).
  bool check_bound = cli.get_bool("check_bound", false);
  double bound_slack = cli.get_double("bound_slack", 1.10);
  /// Also exit non-zero when the alpha=1.1 goodput ratio (skew_tolerant
  /// / single_owner) is below goodput_factor.
  bool require_goodput = cli.get_bool("require_goodput", false);
  double goodput_factor = cli.get_double("goodput_factor", 2.5);
  std::uint64_t seed = cli.get_u32("seed", 42);
  std::string out = cli.get_string("out", "BENCH_skew.json");
};

struct RunResult {
  double goodput = 0.0;  ///< successful reads / s over the measured window
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  double seconds = 0.0;
  double peak_share = 0.0;  ///< hottest node's fraction of served requests
  double peak_to_mean = 0.0;
  std::uint64_t spilled_reads = 0;
  std::uint64_t load_spread_reads = 0;
  std::uint64_t hot_promotions = 0;
  std::uint64_t load_hints = 0;
};

/// One cluster, one alpha, one routing mode, measured end to end.
RunResult run_one(const Options& args, double alpha, bool skew_tolerant) {
  ClusterConfig config;
  config.node_count = args.nodes;
  config.client.mode = ftc::cluster::FtMode::kHashRingRecache;
  config.client.rpc_timeout = std::chrono::milliseconds(5000);
  config.client.timeout_limit = 2;
  config.server.async_data_mover = true;
  config.server.cache_capacity_bytes = 1ULL << 32;
  config.server.endpoint_workers = 1;  // serial service: queueing is real
  if (skew_tolerant) {
    config.server.report_load = true;
    config.client.bounded_load = true;
    config.client.bounded_load_c = args.c;
    config.client.hot_fanout = true;
    config.client.hot_replica_fanout = args.fanout;
    config.client.hot_promote_threshold = args.promote;
    config.client.hot_demote_threshold = args.demote;
  }
  Cluster cluster(config);

  const auto paths = cluster.stage_dataset(args.files, args.file_kb * 1024);
  cluster.warm_caches(paths);
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    cluster.transport().set_extra_latency(
        n, std::chrono::milliseconds(args.service_ms));
  }

  // One closed-loop source per thread.  The first per node is the
  // cluster's co-located client; extras are standalone clients on the
  // same transport and ring (each driven by exactly one thread — the
  // client's threading contract).
  const std::uint32_t threads =
      args.nodes * std::max<std::uint32_t>(1, args.threads_per_node);
  std::vector<NodeId> servers(args.nodes);
  for (NodeId n = 0; n < args.nodes; ++n) servers[n] = n;
  std::vector<std::unique_ptr<ftc::cluster::HvacClient>> extra_clients;
  std::vector<ftc::cluster::HvacClient*> sources;
  sources.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    if (t < args.nodes) {
      sources.push_back(&cluster.client(t));
    } else {
      extra_clients.push_back(std::make_unique<ftc::cluster::HvacClient>(
          t % args.nodes, cluster.transport(), cluster.pfs(), servers,
          config.client));
      sources.push_back(extra_clients.back().get());
    }
  }

  const auto drive = [&](std::uint32_t t, std::uint64_t stream,
                         std::uint32_t count, std::uint64_t& ok,
                         std::uint64_t& fail) {
    ftc::bench::ScrambledZipfGenerator gen(
        paths.size(), alpha, args.seed,
        /*stream=*/stream * threads + t + 1);
    auto& client = *sources[t];
    for (std::uint32_t i = 0; i < count; ++i) {
      if (client.read_file(paths[gen.next()]).is_ok()) ++ok;
      else ++fail;
    }
  };

  const auto fan_out = [&](std::uint64_t stream, std::uint32_t count,
                           std::uint64_t& ok, std::uint64_t& fail,
                           double& seconds) {
    std::vector<std::uint64_t> oks(threads, 0);
    std::vector<std::uint64_t> fails(threads, 0);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const auto start = Clock::now();
    for (std::uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { drive(t, stream, count, oks[t], fails[t]); });
    }
    for (auto& w : workers) w.join();
    seconds = std::chrono::duration<double>(Clock::now() - start).count();
    for (std::uint32_t t = 0; t < threads; ++t) {
      ok += oks[t];
      fail += fails[t];
    }
  };

  // Priming: builds per-client heat, promotes, pushes fanout replicas.
  if (args.prime > 0) {
    std::uint64_t ok = 0, fail = 0;
    double seconds = 0.0;
    fan_out(/*stream=*/1, args.prime, ok, fail, seconds);
  }

  std::vector<std::uint64_t> served_before(args.nodes, 0);
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    served_before[n] = cluster.transport().stats(n).received_data;
  }

  RunResult result;
  std::uint64_t ok = 0;
  fan_out(/*stream=*/2, args.reads, ok, result.failures, result.seconds);
  result.ops = ok;
  result.goodput =
      result.seconds > 0.0 ? static_cast<double>(ok) / result.seconds : 0.0;

  std::uint64_t total = 0, peak = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const std::uint64_t served =
        cluster.transport().stats(n).received_data - served_before[n];
    total += served;
    peak = std::max(peak, served);
  }
  if (total > 0) {
    result.peak_share =
        static_cast<double>(peak) / static_cast<double>(total);
    result.peak_to_mean = result.peak_share * args.nodes;
  }
  for (ftc::cluster::HvacClient* client : sources) {
    const auto s = client->stats_snapshot();
    result.spilled_reads += s.spilled_reads;
    result.load_spread_reads += s.load_spread_reads;
    result.hot_promotions += s.hot_promotions;
    result.load_hints += s.load_hints_observed;
  }
  return result;
}

ftc::bench::Json run_json(const RunResult& r) {
  return {{"goodput_ops_per_sec", r.goodput},
          {"ops", r.ops},
          {"failures", r.failures},
          {"seconds", r.seconds},
          {"peak_share", r.peak_share},
          {"peak_to_mean", r.peak_to_mean},
          {"spilled_reads", r.spilled_reads},
          {"load_spread_reads", r.load_spread_reads},
          {"hot_promotions", r.hot_promotions},
          {"load_hints", r.load_hints}};
}

}  // namespace

int main(int argc, char** argv) {
  const ftc::bench::Args cli(argc, argv);
  const Options args(cli);
  cli.finish();

  struct Row {
    double alpha;
    RunResult base;
    RunResult skew;
    [[nodiscard]] double ratio() const {
      return base.goodput > 0.0 ? skew.goodput / base.goodput : 0.0;
    }
  };
  std::vector<Row> rows;
  rows.reserve(args.alphas.size());

  std::printf("%-7s %14s %14s %8s %11s %11s %8s %8s\n", "alpha",
              "base ops/s", "skew ops/s", "ratio", "base pk/mn",
              "skew pk/mn", "spilled", "spread");
  for (const double alpha : args.alphas) {
    Row row;
    row.alpha = alpha;
    row.base = run_one(args, alpha, /*skew_tolerant=*/false);
    row.skew = run_one(args, alpha, /*skew_tolerant=*/true);
    std::printf("%-7.2f %14.0f %14.0f %8.2f %11.2f %11.2f %8llu %8llu\n",
                alpha, row.base.goodput, row.skew.goodput, row.ratio(),
                row.base.peak_to_mean, row.skew.peak_to_mean,
                static_cast<unsigned long long>(row.skew.spilled_reads),
                static_cast<unsigned long long>(row.skew.load_spread_reads));
    rows.push_back(row);
  }

  ftc::bench::Json current;
  for (const Row& row : rows) {
    current.set("alpha_" + ftc::format_double(row.alpha, 2),
                {{"single_owner", run_json(row.base)},
                 {"skew_tolerant", run_json(row.skew)},
                 {"goodput_ratio", row.ratio()}});
  }
  ftc::bench::Json doc = ftc::bench::artifact("bench_skew", cli);
  // The recorded pre-change baseline, when present.
  doc.set("baseline", ftc::bench::inline_file("BENCH_skew.baseline.json"));
  doc.set("current", current);
  ftc::bench::write_json(args.out, doc);

  // CI gates, evaluated at the canonical skew point alpha=1.1.
  ftc::bench::Gate gate;
  for (const Row& row : rows) {
    if (row.alpha < 1.05 || row.alpha > 1.15) continue;
    if (args.check_bound) {
      // Mean per-node share is 1/nodes by construction; the gate is the
      // bounded-load contract: peak <= slack x c x mean.
      const double bound = args.bound_slack * args.c / args.nodes;
      gate.check(row.skew.peak_share <= bound,
                 "alpha=%.2f skew-tolerant peak share %.4f, bound %.2f x "
                 "c/N = %.4f",
                 row.alpha, row.skew.peak_share, args.bound_slack, bound);
    }
    if (args.require_goodput) {
      gate.check(row.ratio() >= args.goodput_factor,
                 "alpha=%.2f goodput ratio %.2f, required %.2f", row.alpha,
                 row.ratio(), args.goodput_factor);
    }
  }
  return gate.exit_code();
}
