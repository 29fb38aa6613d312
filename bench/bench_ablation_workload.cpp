// Ablation (extension): access-pattern sensitivity.  Vision-style training
// re-reads the full dataset every epoch — the worst case for PFS
// redirection, whose lost-file penalty recurs per epoch.  LLM-style
// partial epochs (subset fraction < 1) touch lost files less often, so
// the FT w/ NVMe advantage narrows.  Quantifies how much of the paper's
// win is workload-dependent.
#include <cstdio>
#include <unordered_set>

#include "bench_common.hpp"
#include "common/string_util.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  using cluster::FtMode;
  const bench::Args args(argc, argv);
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 128));

  cluster::FailurePlanParams plan;
  plan.node_count = nodes;
  plan.failure_count = static_cast<std::uint32_t>(
      args.get_int("failures", 3));
  const auto alphas = args.get_double_list("alphas", {0.8, 1.1, 1.4});
  const bench::PaperConfig paper_config(args);
  args.finish();
  plan.first_eligible_epoch = 1;
  plan.total_epochs = 5;
  plan.seed = 42;
  auto failures = cluster::plan_failures(plan);
  for (auto& failure : failures) failure.epoch_fraction *= 0.3;

  TextTable table({"Epoch fraction", "FT w/ PFS (min)", "FT w/ NVMe (min)",
                   "NVMe gain %", "PFS reads (PFS mode)",
                   "PFS reads (NVMe mode)"});
  for (const double fraction : {1.0, 0.5, 0.25, 0.125}) {
    double minutes[2];
    std::uint64_t pfs_reads[2];
    const FtMode modes[2] = {FtMode::kPfsRedirect,
                             FtMode::kHashRingRecache};
    for (int m = 0; m < 2; ++m) {
      auto config = paper_config(nodes, modes[m]);
      config.epoch_subset_fraction = fraction;
      config.failures = failures;
      const auto result = destim::run_experiment(config);
      minutes[m] = result.completed ? result.total_minutes() : -1;
      pfs_reads[m] = result.total_pfs_reads;
    }
    table.add_row({format_double(fraction, 3), format_double(minutes[0], 3),
                   format_double(minutes[1], 3),
                   format_double(
                       100.0 * (minutes[0] - minutes[1]) / minutes[0], 1),
                   std::to_string(pfs_reads[0]),
                   std::to_string(pfs_reads[1])});
    std::fprintf(stderr, "[workload] fraction %.3f done\n", fraction);
  }
  bench::print_table(
      "Ablation: epoch subset fraction vs FT-mode advantage (" +
          std::to_string(nodes) + " nodes, " +
          std::to_string(plan.failure_count) + " failures)",
      table);
  std::printf(
      "expected: full-pass epochs maximize the recaching advantage; as the "
      "per-epoch subset shrinks, lost files are touched less often and the "
      "two FT designs converge\n");

  // Extension: the same experiment keyed by access *skew* instead of an
  // abstract fraction.  A Zipf(alpha) epoch of file_count draws touches
  // only part of the namespace; the unique-file coverage of a sampled
  // stream (shared ScrambledZipf generator, so bench_skew's alpha axis
  // means the same thing here) becomes the effective subset fraction.
  TextTable zipf_table({"Zipf alpha", "Coverage", "FT w/ PFS (min)",
                        "FT w/ NVMe (min)", "NVMe gain %"});
  for (const double alpha : alphas) {
    // Measure coverage on a representative config (coverage depends only
    // on file_count and alpha, not on the FT mode).
    const auto probe = paper_config(nodes, FtMode::kPfsRedirect);
    bench::ScrambledZipfGenerator gen(probe.file_count, alpha,
                                      probe.shuffle_seed ^ 0xA1FAULL);
    std::unordered_set<std::uint64_t> touched;
    for (std::uint64_t i = 0; i < probe.file_count; ++i) {
      touched.insert(gen.next());
    }
    const double coverage = static_cast<double>(touched.size()) /
                            static_cast<double>(probe.file_count);

    double minutes[2];
    const FtMode modes[2] = {FtMode::kPfsRedirect, FtMode::kHashRingRecache};
    for (int m = 0; m < 2; ++m) {
      auto config = paper_config(nodes, modes[m]);
      config.epoch_subset_fraction = coverage;
      config.failures = failures;
      const auto result = destim::run_experiment(config);
      minutes[m] = result.completed ? result.total_minutes() : -1;
    }
    zipf_table.add_row(
        {format_double(alpha, 2), format_double(coverage, 3),
         format_double(minutes[0], 3), format_double(minutes[1], 3),
         format_double(100.0 * (minutes[0] - minutes[1]) / minutes[0], 1)});
    std::fprintf(stderr, "[workload] alpha %.2f done\n", alpha);
  }
  bench::print_table(
      "Ablation extension: Zipf skew -> epoch coverage -> FT-mode advantage",
      zipf_table);
  std::printf(
      "expected: higher alpha concentrates the epoch on fewer unique files "
      "(lower coverage), shrinking the recaching advantage the same way the "
      "explicit subset fractions above do\n");
  return 0;
}
