// Reproduces Figure 4: the hash-ring reassignment walk-through.  Shows the
// before/after owner of a set of files when a node fails, and verifies the
// two properties the figure illustrates: (i) only the failed node's files
// move, (ii) they move to the clockwise successor.
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "ring/movement_analysis.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  const bench::Args args(argc, argv);
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 4));
  const auto vnodes = static_cast<std::uint32_t>(args.get_int("vnodes", 3));
  const auto victim =
      static_cast<ring::NodeId>(args.get_int("victim", 1));
  args.finish();

  ring::RingConfig ring_config;
  ring_config.vnodes_per_node = vnodes;
  ring::ConsistentHashRing ring(nodes, ring_config);

  // The figure's alphabet of files.
  std::vector<std::string> files;
  for (char c = 'A'; c <= 'H'; ++c) {
    files.push_back(std::string("file_") + c);
  }

  TextTable table({"File", "Ring position (frac)", "Owner before",
                   "Owner after node " + std::to_string(victim) + " fails",
                   "Moved"});
  std::vector<ring::NodeId> before;
  before.reserve(files.size());
  for (const auto& file : files) before.push_back(ring.owner(file));

  auto after_ring = ring.clone();
  after_ring->remove_node(victim);

  constexpr double kCircle = 18446744073709551616.0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto after = after_ring->owner(files[i]);
    table.add_row(
        {files[i],
         format_double(
             static_cast<double>(ring.key_position(files[i])) / kCircle, 6),
         "Node " + std::to_string(before[i]),
         "Node " + std::to_string(after),
         before[i] != after ? "yes" : "no"});
  }
  bench::print_table("Figure 4: ring reassignment after a node failure",
                     table);

  // Property check over a large population.
  const auto keys = ring::make_key_population(20000);
  const auto report = ring::analyze_removal(ring, keys, {victim});
  std::printf(
      "population check over %zu files: moved %zu (%.2f%%), of which "
      "gratuitous %zu (must be 0 — consistent hashing moves only the lost "
      "data); receiver nodes: %zu\n",
      report.total_keys, report.moved_keys, 100.0 * report.moved_fraction(),
      report.gratuitous_moves, report.receiver_node_count());
  return report.gratuitous_moves == 0 ? 0 : 1;
}
