// Ablation (Sec IV-B's design discussion): data movement caused by one
// node failure under the four placement strategies the paper weighs —
// static modulo (original HVAC), multiple hash functions, range
// partitioning (with and without rebalancing), and the hash ring.
//
// The argument this quantifies: static modulo relocates nearly all data;
// range partitioning relocates extra data when it rebalances; multi-hash
// and the ring move only the lost share, but multi-hash probe chains grow
// with repeated failures while the ring stays O(log V*N) per lookup.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "ring/movement_analysis.hpp"
#include "ring/multi_hash.hpp"
#include "ring/range_partition.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  using namespace ftc::ring;
  const bench::Args args(argc, argv);
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 256));
  const auto vnodes = static_cast<std::uint32_t>(args.get_int("vnodes", 100));
  const auto keys_n = static_cast<std::size_t>(args.get_int("keys", 100000));
  args.finish();

  const auto keys = make_key_population(keys_n);
  const NodeId victim = nodes / 3;

  struct Entry {
    std::string name;
    std::unique_ptr<PlacementStrategy> strategy;
  };
  std::vector<Entry> entries;
  entries.push_back({"static_modulo (orig HVAC)",
                     make_strategy(StrategyKind::kStaticModulo, nodes, 0)});
  entries.push_back({"multi_hash",
                     make_strategy(StrategyKind::kMultiHash, nodes, 0)});
  entries.push_back(
      {"range_partition (rebalance)",
       std::make_unique<RangePartitionPlacement>(
           nodes, hash::Algorithm::kMurmur3_64, true)});
  entries.push_back(
      {"range_partition (lazy)",
       std::make_unique<RangePartitionPlacement>(
           nodes, hash::Algorithm::kMurmur3_64, false)});
  entries.push_back({"hash_ring (FT-Cache)",
                     make_strategy(StrategyKind::kHashRing, nodes, vnodes)});

  TextTable table({"Strategy", "Moved %", "Lost (unavoidable) %",
                   "Gratuitous %", "Receiver nodes"});
  for (const auto& entry : entries) {
    const auto report = analyze_removal(*entry.strategy, keys, {victim});
    table.add_row(
        {entry.name, format_double(100.0 * report.moved_fraction(), 2),
         format_double(100.0 * report.lost_keys / report.total_keys, 2),
         format_double(100.0 * report.gratuitous_fraction(), 2),
         std::to_string(report.receiver_node_count())});
  }
  bench::print_table("Ablation: data movement on single-node failure (" +
                         std::to_string(nodes) + " nodes, " +
                         std::to_string(keys_n) + " keys)",
                     table);

  // Cumulative movement across five sequential failures: the churn the
  // strategies accumulate as a job keeps losing nodes (Fig 5b's setting).
  TextTable cumulative({"Strategy", "Moved % after 1", "after 2", "after 3",
                        "after 4", "after 5 failures"});
  for (const auto& entry : entries) {
    const auto mutated = entry.strategy->clone();
    std::vector<NodeId> assignment = assign_all(*mutated, keys);
    const std::vector<NodeId> original = assignment;
    std::vector<std::string> cells = {entry.name};
    std::size_t cumulative_moves = 0;
    for (std::uint32_t f = 0; f < 5; ++f) {
      mutated->remove_node(victim + f);
      const std::vector<NodeId> next = assign_all(*mutated, keys);
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (next[k] != assignment[k]) ++cumulative_moves;
      }
      assignment = next;
      cells.push_back(format_double(
          100.0 * static_cast<double>(cumulative_moves) /
              static_cast<double>(keys.size()),
          2));
    }
    cumulative.add_row(std::move(cells));
  }
  bench::print_table(
      "Ablation: cumulative data movement across 5 sequential failures",
      cumulative);

  // Multi-hash probe-chain growth under repeated failures — the
  // scalability concern the paper raises against it.
  MultiHashPlacement multi(nodes, hash::Algorithm::kMurmur3_64);
  TextTable probes({"Failures so far", "Mean probes per lookup",
                    "Max probes per lookup"});
  std::uint32_t killed = 0;
  for (std::uint32_t round = 0; round < 5; ++round) {
    for (std::uint32_t i = 0; i < nodes / 8 && killed + 1 < nodes; ++i) {
      multi.remove_node(killed++);
    }
    double total_probes = 0;
    std::uint32_t max_probes = 0;
    for (std::size_t k = 0; k < 2000; ++k) {
      (void)multi.owner(keys[k]);
      total_probes += multi.last_probe_count();
      max_probes = std::max(max_probes, multi.last_probe_count());
    }
    probes.add_row({std::to_string(killed),
                    format_double(total_probes / 2000.0, 2),
                    std::to_string(max_probes)});
  }
  bench::print_table(
      "Ablation: multi-hash probe-chain growth with repeated failures",
      probes);

  std::printf(
      "expected: static modulo moves ~%.0f%% of all keys; ring/multi-hash "
      "move only ~%.1f%% (the lost share); rebalancing range partitioning "
      "sits in between; multi-hash probe cost grows with failures\n",
      100.0 * (1.0 - 1.0 / (nodes - 1)), 100.0 / nodes);
  return 0;
}
