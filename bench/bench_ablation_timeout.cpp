// Ablation (Sec IV-A's TTL discussion): how TIMEOUT_SECONDS and
// TIMEOUT_LIMIT shape recovery cost for FT w/ NVMe.  A tight deadline
// detects failures quickly but a loose one "only needs to be greater than
// the longest observed latency"; a higher limit suppresses false positives
// at the cost of limit x timeout of detection delay per client.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  using cluster::FtMode;
  const bench::Args args(argc, argv);
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 128));

  std::vector<double> timeouts_ms;
  for (std::int64_t t : args.get_int_list("timeouts_ms", {25, 50, 100, 200, 400})) {
    timeouts_ms.push_back(static_cast<double>(t));
  }
  std::vector<std::uint32_t> limits;
  for (std::int64_t l : args.get_int_list("limits", {1, 2, 4})) {
    limits.push_back(static_cast<std::uint32_t>(l));
  }

  cluster::PlannedFailure failure;
  failure.victim = nodes / 2;
  failure.epoch = 1;
  failure.epoch_fraction = 0.3;

  // A second node suffers a transient slow period (alive, over-deadline
  // for tight TTLs): the false-positive hazard the threshold absorbs.
  destim::ExperimentConfig::TransientSlowdown blip;
  blip.node = nodes / 4;
  blip.start = simtime::from_seconds(args.get_double("blip_start_s", 2.0));
  blip.duration = simtime::from_ms(args.get_double("blip_ms", 400.0));
  blip.extra_latency =
      simtime::from_ms(args.get_double("blip_extra_ms", 60.0));
  const bench::PaperConfig paper_config(args);
  args.finish();

  // Baseline without failure for overhead normalization.
  const auto base_config = paper_config(nodes, FtMode::kHashRingRecache);
  const auto baseline = destim::run_experiment(base_config);

  TextTable table({"Timeout (ms)", "Limit", "Total (min)",
                   "Overhead vs no-fail %", "Timeouts", "False timeouts",
                   "Falsely flagged"});
  for (const double timeout_ms : timeouts_ms) {
    for (const std::uint32_t limit : limits) {
      auto config = paper_config(nodes, FtMode::kHashRingRecache);
      config.rpc_timeout = simtime::from_ms(timeout_ms);
      config.timeout_limit = limit;
      config.failures = {failure};
      config.slowdowns = {blip};
      const auto result = destim::run_experiment(config);
      const double overhead =
          100.0 * (result.total_minutes() - baseline.total_minutes()) /
          baseline.total_minutes();
      table.add_row({format_double(timeout_ms, 0), std::to_string(limit),
                     format_double(result.total_minutes(), 3),
                     format_double(overhead, 2),
                     std::to_string(result.total_timeouts),
                     std::to_string(result.total_false_timeouts),
                     std::to_string(result.falsely_flagged_nodes)});
    }
    std::fprintf(stderr, "[timeout ablation] %.0f ms done\n", timeout_ms);
  }
  bench::print_table(
      "Ablation: detection deadline (TIMEOUT_SECONDS) x threshold "
      "(TIMEOUT_LIMIT), FT w/ NVMe, 1 real failure + 1 transient slow node, " +
          std::to_string(nodes) + " nodes",
      table);
  std::printf(
      "expected: overhead grows with timeout x limit (detection delay per "
      "client per dead node); deadlines below the slow node's latency plus "
      "low limits condemn a HEALTHY node (falsely flagged > 0), which the "
      "paper's counter threshold exists to prevent\n");
  return 0;
}
