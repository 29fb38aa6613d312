// Ablation (Sec IV-B / V-B2 trade-off): the resource cost of virtual
// nodes.  The paper notes that more vnodes improve balance but "enlarge
// the hash table, which heightens resource consumption and prolongs
// computational time"; production uses 100.  This bench measures ring
// memory footprint (map entries), construction time, lookup latency and
// removal latency across vnode counts, alongside the balance benefit.
// The timings are the paper's std::map layout (MapHashRing); the balance
// columns come from the runtime ring, which places every key the same.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "hash/murmur3.hpp"
#include "ring/consistent_hash_ring.hpp"
#include "ring/load_distribution.hpp"
#include "ring/map_hash_ring.hpp"

int main(int argc, char** argv) {
  using namespace ftc;
  const bench::Args args(argc, argv);
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 1024));
  const auto lookups = static_cast<std::uint32_t>(
      args.get_int("lookups", 200000));

  std::vector<std::uint32_t> vnode_counts;
  for (std::int64_t v :
       args.get_int_list("vnodes", {10, 50, 100, 200, 500, 1000})) {
    vnode_counts.push_back(static_cast<std::uint32_t>(v));
  }
  args.finish();

  TextTable table({"Vnodes/node", "Ring entries", "Build (ms)",
                   "Lookup (ns/op)", "Node removal (us)",
                   "Peak/mean arc share", "Receiver nodes (100 trials)"});

  using Clock = std::chrono::steady_clock;
  for (const std::uint32_t vnodes : vnode_counts) {
    ring::RingConfig config;
    config.vnodes_per_node = vnodes;

    const auto build_start = Clock::now();
    const ring::MapHashRing map_ring(nodes, config);
    const double build_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - build_start)
            .count();

    // Lookup latency over precomputed hashes (pure map cost).
    std::vector<std::uint64_t> hashes(lookups);
    for (std::uint32_t i = 0; i < lookups; ++i) {
      hashes[i] = hash::fmix64(i * 0x9E3779B97F4A7C15ULL + 1);
    }
    const auto lookup_start = Clock::now();
    std::uint64_t sink = 0;
    for (const std::uint64_t h : hashes) sink += map_ring.owner_of_hash(h);
    const double lookup_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - lookup_start)
            .count() /
        lookups;

    // Removal cost (the fault-handling path).
    ring::MapHashRing copy = map_ring;
    const auto removal_start = Clock::now();
    copy.remove_node(nodes / 2);
    const double removal_us =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  removal_start)
            .count();

    const ring::ConsistentHashRing ring(nodes, config);
    const auto share = ring.arc_share();
    double peak = 0.0;
    for (const auto& [node, s] : share) peak = std::max(peak, s);
    const double peak_to_mean = peak * nodes;

    ring::LoadDistributionParams load;
    load.physical_nodes = nodes;
    load.vnodes_per_node = vnodes;
    load.file_count = 65536;
    load.trials = 100;
    const auto balance = ring::run_load_distribution(load);

    table.add_row({std::to_string(vnodes),
                   std::to_string(ring.position_count()),
                   format_double(build_ms, 2), format_double(lookup_ns, 1),
                   format_double(removal_us, 1),
                   format_double(peak_to_mean, 2),
                   format_double(balance.receiver_nodes.mean(), 1)});
    std::fprintf(stderr, "[vnode ablation] %u vnodes done (sink=%llu)\n",
                 vnodes, static_cast<unsigned long long>(sink % 10));
  }
  bench::print_table(
      "Ablation: virtual-node cost/benefit trade-off (" +
          std::to_string(nodes) + " physical nodes)",
      table);
  std::printf(
      "expected: balance (peak/mean -> 1, receivers up) improves with "
      "vnodes while memory and per-op cost grow — the paper picks 100\n");
  return 0;
}
