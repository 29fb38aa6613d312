// Reproduces Figure 6(a): duration of the "victim" epoch (the epoch during
// which a failure happens) for no-failure vs FT w/ PFS vs FT w/ NVMe,
// from 64 to 1024 nodes.
//
// Paper's shape: PFS redirection inflates the victim epoch most at small
// scale; NVMe recaching stays close to the no-failure epoch and converges
// toward it as node count grows.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"

namespace {

// Duration of epoch `epoch` in minutes, or -1 when missing.
double epoch_minutes(const ftc::destim::ExperimentResult& result,
                     std::uint32_t epoch) {
  for (const auto& record : result.epochs) {
    if (record.epoch == epoch) {
      return ftc::simtime::to_minutes(record.duration);
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftc;
  using cluster::FtMode;
  const bench::Args args(argc, argv);
  const auto scales = bench::scales_from(args);
  const std::uint32_t victim_epoch = static_cast<std::uint32_t>(
      args.get_int("victim_epoch", 2));
  const double fraction = args.get_double("fraction", 0.4);
  const bench::PaperConfig paper_config(args);
  args.finish();

  TextTable table({"Nodes", "No-failure epoch (min)",
                   "FT w/ PFS victim epoch (min)",
                   "FT w/ NVMe victim epoch (min)", "PFS/no-fail x",
                   "NVMe/no-fail x"});

  for (const std::uint32_t nodes : scales) {
    const auto base_config = paper_config(nodes, FtMode::kHashRingRecache);
    const auto baseline = destim::run_experiment(base_config);
    const double base_epoch = epoch_minutes(baseline, victim_epoch);

    cluster::PlannedFailure failure;
    failure.victim = nodes / 2;
    failure.epoch = victim_epoch;
    failure.epoch_fraction = fraction;

    auto pfs_config = paper_config(nodes, FtMode::kPfsRedirect);
    pfs_config.failures = {failure};
    const auto pfs_run = destim::run_experiment(pfs_config);
    const double pfs_epoch = epoch_minutes(pfs_run, victim_epoch);

    auto nvme_config = paper_config(nodes, FtMode::kHashRingRecache);
    nvme_config.failures = {failure};
    const auto nvme_run = destim::run_experiment(nvme_config);
    const double nvme_epoch = epoch_minutes(nvme_run, victim_epoch);

    table.add_row({std::to_string(nodes), format_double(base_epoch, 3),
                   format_double(pfs_epoch, 3), format_double(nvme_epoch, 3),
                   format_double(pfs_epoch / base_epoch, 2),
                   format_double(nvme_epoch / base_epoch, 2)});
    std::fprintf(stderr, "[fig6a] scale %u done\n", nodes);
  }

  bench::print_table(
      "Figure 6(a): victim-epoch duration (failure at epoch " +
          std::to_string(victim_epoch) + ", fraction " +
          format_double(fraction, 2) + ")",
      table);
  std::printf(
      "paper reference: PFS redirection worst at 64-128 nodes; NVMe "
      "recaching approaches the no-failure epoch as nodes increase\n");
  return 0;
}
