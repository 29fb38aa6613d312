// Reproduces Figure 6(b): effect of the virtual-node count on post-failure
// load redistribution — 1024 physical nodes, one random failure, 500
// trials per configuration (the paper's own simulation experiment).
//
// Paper's shape: receiver nodes grow from ~3 (10 vnodes) toward ~300
// (1000 vnodes) with diminishing returns past ~500 and a plateau around
// ~350; files-per-receiver falls correspondingly; its stddev shrinks
// (better balance), while receiver-count stddev grows.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "ring/load_distribution.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  const bench::Args args(argc, argv);

  ring::LoadDistributionParams base;
  base.physical_nodes = static_cast<std::uint32_t>(
      args.get_int("nodes", 1024));
  base.file_count = static_cast<std::uint64_t>(
      args.get_int("files", 524288));
  base.trials = static_cast<std::uint32_t>(args.get_int("trials", 500));
  base.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  std::vector<std::uint32_t> vnode_counts;
  for (std::int64_t v :
       args.get_int_list("vnodes", {10, 50, 100, 200, 500, 1000})) {
    if (v > 0) vnode_counts.push_back(static_cast<std::uint32_t>(v));
  }
  // The bounded-load extension below: load factor c (<= 1 skips it).
  ring::LoadDistributionParams bounded = base;
  bounded.bounded_load_c = args.get_double("c", 1.25);
  bounded.bounded_load_max_spill = static_cast<std::uint32_t>(
      args.get_int("max_spill", bounded.bounded_load_max_spill));
  bounded.trials = static_cast<std::uint32_t>(
      args.get_int("bounded_trials", std::max(1, int(base.trials) / 25)));
  args.finish();

  TextTable table({"Vnodes/node", "Receiver nodes (mean)", "+- sd",
                   "Files/receiver (mean)", "+- sd", "Lost files (mean)",
                   "Jain fairness", "Max on one receiver", "p99 on receiver"});
  const auto sweep = ring::run_load_distribution_sweep(base, vnode_counts);
  for (const auto& result : sweep) {
    table.add_row(
        {std::to_string(result.params.vnodes_per_node),
         format_double(result.receiver_nodes.mean(), 1),
         format_double(result.receiver_nodes.stddev(), 1),
         format_double(result.files_per_receiver.mean(), 1),
         format_double(result.files_per_receiver.stddev(), 1),
         format_double(result.lost_files.mean(), 1),
         format_double(result.receiver_fairness.mean(), 3),
         format_double(result.max_files_one_receiver.mean(), 1),
         format_double(result.p99_files_one_receiver.mean(), 1)});
  }
  bench::print_table(
      "Figure 6(b): load redistribution vs virtual-node count (" +
          std::to_string(base.physical_nodes) + " nodes, " +
          std::to_string(base.trials) + " trials)",
      table);

  std::printf(
      "paper reference: ~3 receivers at 10 vnodes -> ~300 at 1000; "
      "diminishing returns past 500 (plateau ~350); files/receiver falls "
      "and its spread tightens; the paper's production pick is 100\n");

  // Extension: whole-population peak/mean on the post-failure ring, plain
  // clockwise assignment vs bounded-load spill (CH-BL) at factor c.  The
  // full-arc walk is ~physical_nodes x the per-trial cost of the failure
  // study above, so it runs fewer trials.
  if (bounded.bounded_load_c > 1.0) {
    TextTable blb({"Vnodes/node", "Peak/mean plain", "+- sd",
                   "Peak/mean CH-BL", "+- sd", "Spilled fraction"});
    for (const auto& result :
         ring::run_load_distribution_sweep(bounded, vnode_counts)) {
      blb.add_row({std::to_string(result.params.vnodes_per_node),
                   format_double(result.peak_to_mean_plain.mean(), 3),
                   format_double(result.peak_to_mean_plain.stddev(), 3),
                   format_double(result.peak_to_mean_bounded.mean(), 3),
                   format_double(result.peak_to_mean_bounded.stddev(), 3),
                   format_double(result.bounded_spill_fraction.mean(), 4)});
    }
    bench::print_table(
        "Extension: post-failure peak/mean, plain vs bounded-load (c=" +
            format_double(bounded.bounded_load_c, 2) + ", " +
            std::to_string(bounded.trials) + " trials)",
        blb);
    std::printf(
        "expected: CH-BL caps the peak near c while moving only a few "
        "percent of keys; plain clockwise assignment's peak grows with "
        "hash-arc variance (worst at low vnode counts)\n");
  }
  return 0;
}
