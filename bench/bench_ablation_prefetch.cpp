// Ablation (extension): pipelined prefetching.  The epoch permutation is
// a pure function of (seed, epoch), so each node can fetch step k+1's
// files during step k's compute — the "clairvoyant" opportunity the paper
// cites as related work [1,10].  Measures how much of the cache-read and
// recovery I/O hides under compute, with and without failures.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  using cluster::FtMode;
  const bench::Args args(argc, argv);
  const auto scales = bench::scales_from(args);
  const bench::PaperConfig paper_config(args);
  args.finish();

  TextTable table({"Nodes", "No prefetch (min)", "Prefetch (min)",
                   "Speedup %", "No prefetch +fail", "Prefetch +fail",
                   "Speedup % (fail)"});
  for (const std::uint32_t nodes : scales) {
    double minutes[2][2];  // [prefetch][failure]
    for (int pf = 0; pf < 2; ++pf) {
      for (int fail = 0; fail < 2; ++fail) {
        auto config = paper_config(nodes, FtMode::kHashRingRecache);
        config.prefetch.enabled = (pf == 1);
        if (fail == 1) {
          cluster::PlannedFailure failure;
          failure.victim = nodes / 2;
          failure.epoch = 2;
          failure.epoch_fraction = 0.2;
          config.failures = {failure};
        }
        const auto result = destim::run_experiment(config);
        minutes[pf][fail] = result.completed ? result.total_minutes() : -1;
      }
    }
    table.add_row(
        {std::to_string(nodes), format_double(minutes[0][0], 3),
         format_double(minutes[1][0], 3),
         format_double(100.0 * (minutes[0][0] - minutes[1][0]) /
                           minutes[0][0], 1),
         format_double(minutes[0][1], 3), format_double(minutes[1][1], 3),
         format_double(100.0 * (minutes[0][1] - minutes[1][1]) /
                           minutes[0][1], 1)});
    std::fprintf(stderr, "[prefetch] scale %u done\n", nodes);
  }
  bench::print_table(
      "Ablation: pipelined prefetch on the FT w/ NVMe system "
      "(DES substrate)", table);
  std::printf(
      "expected: prefetch hides cached-epoch reads under compute; the gain "
      "persists under failures (recache fetches also overlap)\n");
  std::printf(
      "substrate: discrete-event timing model only — the threaded "
      "epoch-ahead planner and kPeerGet pulls are measured by "
      "bench_fig5_end_to_end prefetch_only=1\n");
  return 0;
}
