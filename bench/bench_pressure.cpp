// bench_pressure.cpp - Tiered-store behaviour under cache pressure.
//
// The figure benches measure placement; this one measures the store
// itself, in the regime the tiered design exists for: a dataset several
// times the RAM tier, epoch-style sequential scans (LRU's worst case),
// and a reclaim thread demoting under live writes.  Three phases:
//
//   scan       One store per eviction policy: a hot set is warmed with
//              Zipf(zipf_alpha) draws (repeat draws prove reuse), then
//              `epochs` sequential sweeps stream a dataset 4x RAM (and
//              larger than RAM+NVMe combined, so the cold tier churns
//              too), each miss recaching as a training job would.  The
//              measured quantity is the hot set's hit ratio on a revisit
//              AFTER the scans.  Under LRU the one-touch stream flushes
//              the hot set out of both tiers; S3-FIFO's probationary
//              queue absorbs it, so proven-reuse entries never leave the
//              main queue.  Gate: s3fifo >= hit_factor x lru.
//
//   writes     Put latency with the background reclaim thread churning
//              (RAM held above the high watermark) versus unpressured.
//              Writes must never block on reclaim.  Gate: pressured p99
//              <= max(p99_factor x base, base + p99_slack_us).
//
//   warm       A tiered cluster node is killed and warm-restarted from
//              its surviving NVMe manifest, with one entry deliberately
//              superseded cluster-side while the node was down.  Gates:
//              >= warm_fraction of the valid manifest re-serves with
//              ZERO new PFS reads, and the stale entry is rejected.
//
// Writes machine-readable BENCH_pressure.json (override with out=...).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "common/string_util.hpp"
#include "store/tiered_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ftc::store::PolicyKind;
using ftc::store::StoreConfig;
using ftc::store::TieredCacheStore;

/// The bench's options; `cli` is read only while the members initialise.
struct Options {
  explicit Options(const ftc::bench::Args& cli) : cli(cli) {}
  const ftc::bench::Args& cli;
  /// RAM-tier budget; the dataset is dataset_x times this, the NVMe tier
  /// nvme_x times (nvme_x < dataset_x keeps the cold tier churning).
  std::uint32_t ram_kb = cli.get_u32("ram_kb", 2048);
  std::uint32_t file_kb = cli.get_u32("file_kb", 4);
  std::uint32_t dataset_x = cli.get_u32("dataset_x", 4);
  std::uint32_t nvme_x = cli.get_u32("nvme_x", 2);
  std::uint32_t epochs = cli.get_u32("epochs", 4);
  /// Hot set: `hot_files` ids warmed with `warm_draws_x` x hot_files
  /// Zipf(zipf_alpha) draws before the scans.
  std::uint32_t hot_files = cli.get_u32("hot_files", 64);
  std::uint32_t warm_draws_x = cli.get_u32("warm_draws_x", 8);
  double zipf_alpha = cli.get_double("zipf_alpha", 0.8);
  /// Timed puts per write-latency run.
  std::uint32_t writes = cli.get_u32("writes", 4000);
  /// Warm-restart phase cluster shape.
  std::uint32_t nodes = cli.get_u32("nodes", 4);
  std::uint32_t wr_files = cli.get_u32("wr_files", 64);
  std::uint32_t wr_file_kb = cli.get_u32("wr_file_kb", 16);
  bool require_hit = cli.get_bool("require_hit", true);
  bool require_p99 = cli.get_bool("require_p99", true);
  bool require_warm = cli.get_bool("require_warm", true);
  double hit_factor = cli.get_double("hit_factor", 1.3);
  double p99_factor = cli.get_double("p99_factor", 1.2);
  double p99_slack_us = cli.get_double("p99_slack_us", 200.0);
  double warm_fraction = cli.get_double("warm_fraction", 0.95);
  std::uint64_t seed = cli.get_u32("seed", 42);
  std::string out = cli.get_string("out", "BENCH_pressure.json");
};

// --- scan phase --------------------------------------------------------

struct ScanResult {
  double hit_ratio = 0.0;   ///< hot-set hits on the post-scan revisit
  double ram_ratio = 0.0;   ///< survivors still in the RAM tier
  std::uint64_t warmed = 0; ///< distinct hot ids touched during warm-up
  std::uint64_t demotions = 0;
  std::uint64_t evictions = 0;
};

ScanResult run_scan(const Options& args, PolicyKind policy) {
  const std::uint64_t ram_bytes = std::uint64_t{args.ram_kb} << 10;
  StoreConfig config;
  config.nvme_bytes = ram_bytes * args.nvme_x;
  config.policy = policy;
  config.background_reclaim = false;  // deterministic hit counts
  // Tight watermarks: reclaim runs as a steady trickle that tracks the
  // insert rate instead of rare bulk drains, so victim selection reflects
  // the policy's ordering, not burst depth.
  config.low_watermark = 0.85;
  config.high_watermark = 0.95;
  TieredCacheStore store(ram_bytes, config);

  const std::uint64_t file_bytes = std::uint64_t{args.file_kb} << 10;
  const auto files = static_cast<std::uint32_t>(
      ram_bytes * args.dataset_x / file_bytes);
  const std::string payload(file_bytes, 'p');

  const auto access = [&](std::uint32_t f) {
    const std::string path = "/d/" + std::to_string(f);
    if (store.get(path).is_ok()) return true;
    // Miss -> "PFS fetch" + recache, as the training job would.
    (void)store.put(path, ftc::common::Buffer(payload), file_bytes, 0);
    return false;
  };

  // Warm the hot set (the first hot_files dataset members) with Zipf
  // draws: every policy sees the identical stream, repeat draws are the
  // reuse signal S3-FIFO's admission control keys on.
  ftc::bench::ZipfGenerator hot(args.hot_files, args.zipf_alpha, args.seed);
  std::vector<bool> warmed(args.hot_files, false);
  for (std::uint32_t d = 0; d < args.warm_draws_x * args.hot_files; ++d) {
    const auto id = static_cast<std::uint32_t>(hot.next());
    (void)access(id);
    warmed[id] = true;
  }

  // The scan phase: epoch-style sequential sweeps of the full dataset.
  for (std::uint32_t epoch = 0; epoch < args.epochs; ++epoch) {
    for (std::uint32_t f = 0; f < files; ++f) (void)access(f);
  }

  // Revisit: what fraction of the warmed hot set still hits (either
  // tier)?  Pure gets — misses are NOT recached, so the measurement
  // does not disturb itself.
  ScanResult result;
  std::uint64_t hits = 0, ram = 0;
  for (std::uint32_t id = 0; id < args.hot_files; ++id) {
    if (!warmed[id]) continue;
    ++result.warmed;
    const std::string path = "/d/" + std::to_string(id);
    if (store.tier_of(path) == "ram") ++ram;
    if (store.contains(path)) ++hits;
  }
  if (result.warmed > 0) {
    result.hit_ratio =
        static_cast<double>(hits) / static_cast<double>(result.warmed);
    result.ram_ratio =
        static_cast<double>(ram) / static_cast<double>(result.warmed);
  }
  const auto stats = store.stats_snapshot();
  result.demotions = stats.demotions;
  result.evictions = stats.evictions;
  return result;
}

// --- write-latency phase -----------------------------------------------

struct WriteResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t reclaim_runs = 0;
  std::uint64_t demotions = 0;
};

WriteResult run_writes(const Options& args, bool pressured) {
  const std::uint64_t file_bytes = std::uint64_t{args.file_kb} << 10;
  // Unpressured: RAM swallows every write without ever crossing the high
  // watermark.  Pressured: RAM holds ~64 files, so the reclaim thread
  // demotes continuously underneath the timed writes.
  const std::uint64_t ram_bytes =
      pressured ? file_bytes * 64 : file_bytes * (args.writes + 64);
  StoreConfig config;
  config.nvme_bytes = file_bytes * (args.writes + 64);
  config.policy = PolicyKind::kS3Fifo;
  config.background_reclaim = true;
  TieredCacheStore store(ram_bytes, config);

  const std::string payload(file_bytes, 'w');
  std::vector<double> latencies_us;
  latencies_us.reserve(args.writes);
  for (std::uint32_t i = 0; i < args.writes; ++i) {
    const std::string path = "/w/" + std::to_string(i);
    const auto start = Clock::now();
    (void)store.put(path, ftc::common::Buffer(payload), file_bytes, 0);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }
  store.wait_reclaimed();

  std::sort(latencies_us.begin(), latencies_us.end());
  WriteResult result;
  result.p50_us = ftc::bench::percentile(latencies_us, 50.0);
  result.p99_us = ftc::bench::percentile(latencies_us, 99.0);
  const auto stats = store.stats_snapshot();
  result.reclaim_runs = stats.reclaim_runs;
  result.demotions = stats.demotions;
  return result;
}

// --- warm-restart phase ------------------------------------------------

struct WarmResult {
  std::size_t held = 0;      ///< valid manifest entries before the kill
  std::size_t restored = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t pfs_reads_reserve = 0;  ///< PFS reads during the re-serve
  double restored_fraction = 0.0;
};

WarmResult run_warm_restart(const Options& args) {
  using ftc::cluster::Cluster;
  using ftc::cluster::ClusterConfig;
  using ftc::cluster::NodeId;

  ClusterConfig config;
  config.node_count = args.nodes;
  config.client.mode = ftc::cluster::FtMode::kHashRingRecache;
  config.client.rpc_timeout = std::chrono::milliseconds(5000);
  config.client.timeout_limit = 2;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 64ULL << 20;
  config.server.store.nvme_bytes = 256ULL << 20;
  config.server.store.policy = PolicyKind::kS3Fifo;
  config.server.store.background_reclaim = false;
  Cluster cluster(config);

  const auto paths =
      cluster.stage_dataset(args.wr_files, args.wr_file_kb * 1024);
  cluster.warm_caches(paths);

  const NodeId victim = args.nodes / 2;
  // One deliberately superseded entry: the victim holds generation 5,
  // but while it is "down" an alive peer's ledger moves on to 7.
  ftc::rpc::RpcRequest put;
  put.op = ftc::rpc::Op::kPut;
  put.path = "/pressure/superseded";
  put.payload = ftc::common::Buffer(std::string(1024, 's'));
  put.replica_generation = 5;
  (void)cluster.server(victim).handle(put);
  cluster.server(victim).flush_cache_to_cold();

  put.replica_generation = 7;
  (void)cluster.server(victim == 0 ? 1 : 0).handle(put);

  WarmResult result;
  result.held = cluster.server(victim).cached_file_count() - 1;  // - stale
  result.restored = cluster.restart_node_warm(victim);
  const auto stats = cluster.server(victim).store_stats();
  result.rejected_stale = stats.manifest_rejected_stale;
  if (result.held > 0) {
    result.restored_fraction = static_cast<double>(result.restored) /
                               static_cast<double>(result.held);
  }

  const auto pfs_before = cluster.pfs().read_count();
  for (const auto& path : paths) {
    (void)cluster.client(0).read_file(path);
  }
  result.pfs_reads_reserve = cluster.pfs().read_count() - pfs_before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using ftc::format_double;
  const ftc::bench::Args cli(argc, argv);
  const Options args(cli);
  cli.finish();

  std::printf("%-8s %12s %12s %12s %12s\n", "policy", "hot-set hit",
              "still in RAM", "demotions", "evictions");
  const ScanResult lru = run_scan(args, PolicyKind::kLru);
  const ScanResult s3 = run_scan(args, PolicyKind::kS3Fifo);
  const ScanResult gdsf = run_scan(args, PolicyKind::kGdsf);
  // LRU's loop pathology can drive its ratio to exactly 0; floor it so
  // the gate ratio stays finite.
  const double lru_floor = std::max(lru.hit_ratio, 0.02);
  const double scan_ratio = s3.hit_ratio / lru_floor;
  ftc::bench::Json scan;
  for (const auto& [name, r] :
       {std::pair<const char*, const ScanResult&>{"lru", lru},
        {"s3fifo", s3},
        {"gdsf", gdsf}}) {
    std::printf("%-8s %12s %12s %12llu %12llu\n", name,
                format_double(r.hit_ratio, 4).c_str(),
                format_double(r.ram_ratio, 4).c_str(),
                static_cast<unsigned long long>(r.demotions),
                static_cast<unsigned long long>(r.evictions));
    scan.set(name, {{"hot_set_hit_ratio", r.hit_ratio},
                    {"ram_ratio", r.ram_ratio},
                    {"warmed", r.warmed},
                    {"demotions", r.demotions},
                    {"evictions", r.evictions}});
  }
  scan.set("s3fifo_vs_lru", scan_ratio);

  const WriteResult base = run_writes(args, /*pressured=*/false);
  const WriteResult pressured = run_writes(args, /*pressured=*/true);
  std::printf("writes: base p99 %sus, pressured p99 %sus (%llu reclaim "
              "runs, %llu demotions underneath)\n",
              format_double(base.p99_us, 1).c_str(),
              format_double(pressured.p99_us, 1).c_str(),
              static_cast<unsigned long long>(pressured.reclaim_runs),
              static_cast<unsigned long long>(pressured.demotions));
  const double p99_budget =
      std::max(args.p99_factor * base.p99_us, base.p99_us + args.p99_slack_us);

  const WarmResult warm = run_warm_restart(args);
  std::printf("warm restart: %zu/%zu restored (%s), %llu stale rejected, "
              "%llu PFS reads on re-serve\n",
              warm.restored, warm.held,
              format_double(warm.restored_fraction, 3).c_str(),
              static_cast<unsigned long long>(warm.rejected_stale),
              static_cast<unsigned long long>(warm.pfs_reads_reserve));

  ftc::bench::Json doc = ftc::bench::artifact("bench_pressure", cli);
  doc.set("scan", scan);
  doc.set("writes", {{"base",
                      {{"p50_us", base.p50_us},
                       {"p99_us", base.p99_us},
                       {"reclaim_runs", base.reclaim_runs}}},
                     {"pressured",
                      {{"p50_us", pressured.p50_us},
                       {"p99_us", pressured.p99_us},
                       {"reclaim_runs", pressured.reclaim_runs},
                       {"demotions", pressured.demotions}}},
                     {"p99_budget_us", p99_budget}});
  doc.set("warm", {{"held", warm.held},
                   {"restored", warm.restored},
                   {"restored_fraction", warm.restored_fraction},
                   {"rejected_stale", warm.rejected_stale},
                   {"pfs_reads_on_reserve", warm.pfs_reads_reserve}});
  ftc::bench::write_json(args.out, doc);

  ftc::bench::Gate gate;
  if (args.require_hit) {
    gate.check(scan_ratio >= args.hit_factor,
               "scan: s3fifo hot-set hit ratio %.4f vs %.2f x lru %.4f",
               s3.hit_ratio, args.hit_factor, lru_floor);
  }
  if (args.require_p99) {
    gate.check(pressured.p99_us <= p99_budget,
               "pressured write p99 %.1fus, budget %.1fus (base %.1fus)",
               pressured.p99_us, p99_budget, base.p99_us);
  }
  if (args.require_warm) {
    gate.check(warm.restored_fraction >= args.warm_fraction &&
                   warm.pfs_reads_reserve == 0 && warm.rejected_stale == 1,
               "warm restart restored %.3f (need >= %.2f), %llu PFS reads "
               "(need 0), %llu stale rejected (need 1)",
               warm.restored_fraction, args.warm_fraction,
               static_cast<unsigned long long>(warm.pfs_reads_reserve),
               static_cast<unsigned long long>(warm.rejected_stale));
  }
  return gate.exit_code();
}
