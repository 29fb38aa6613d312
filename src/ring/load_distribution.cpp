#include "ring/load_distribution.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "common/histogram.hpp"  // percentile_sorted
#include "common/rng.hpp"
#include "ring/consistent_hash_ring.hpp"

namespace ftc::ring {
namespace {

/// Counts sorted values in the half-open modular interval (lo, hi].
std::uint64_t count_in_arc(const std::vector<std::uint64_t>& sorted,
                           std::uint64_t lo, std::uint64_t hi) {
  auto count_le = [&sorted](std::uint64_t x) -> std::uint64_t {
    return static_cast<std::uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
  };
  if (lo < hi) return count_le(hi) - count_le(lo);
  if (lo == hi) return 0;  // degenerate arc
  // Wrap-around: (lo, 2^64) U [0, hi].
  return (sorted.size() - count_le(lo)) + count_le(hi);
}

}  // namespace

LoadDistributionResult run_load_distribution(
    const LoadDistributionParams& params) {
  LoadDistributionResult result;
  result.params = params;
  if (params.physical_nodes < 2 || params.file_count == 0) return result;

  RingConfig ring_config;
  ring_config.vnodes_per_node = params.vnodes_per_node;
  ring_config.seed = params.seed;
  const ConsistentHashRing hash_ring(params.physical_nodes, ring_config);
  const std::vector<ConsistentHashRing::VirtualNode>& ring =
      hash_ring.positions();
  Rng trial_rng(params.seed ^ 0xF17EDB15ULL);

  std::vector<std::uint64_t> file_hashes(params.file_count);
  std::vector<double> spacings(params.file_count + 1);
  for (std::uint32_t trial = 0; trial < params.trials; ++trial) {
    // Fresh uniform file-hash population per trial, generated directly in
    // sorted order via normalized exponential spacings (the order
    // statistics of i.i.d. uniforms) — statistically identical to hashing
    // distinct path strings and sorting, without the O(F log F) sort.
    Rng file_rng(trial_rng());
    double total = 0.0;
    for (double& s : spacings) {
      s = file_rng.exponential(1.0);
      total += s;
    }
    constexpr double kCircle = 18446744073709551616.0;  // 2^64
    double acc = 0.0;
    for (std::uint64_t i = 0; i < params.file_count; ++i) {
      acc += spacings[i];
      file_hashes[i] = static_cast<std::uint64_t>(acc / total * kCircle);
    }

    const auto failed =
        static_cast<std::uint32_t>(trial_rng.below(params.physical_nodes));

    // Every arc ending at one of the failed node's virtual positions loses
    // its files to the clockwise successor owned by a surviving node.
    std::unordered_map<std::uint32_t, std::uint64_t> received;
    std::uint64_t lost = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      if (ring[i].node != failed) continue;
      const std::size_t prev = (i == 0) ? ring.size() - 1 : i - 1;
      const std::uint64_t files =
          count_in_arc(file_hashes, ring[prev].position, ring[i].position);
      if (files == 0) continue;
      lost += files;
      // Successor scan skipping the failed node's own positions.
      std::size_t j = (i + 1) % ring.size();
      while (ring[j].node == failed) j = (j + 1) % ring.size();
      received[ring[j].node] += files;
    }

    result.lost_files.add(static_cast<double>(lost));
    result.receiver_nodes.add(static_cast<double>(received.size()));
    if (!received.empty()) {
      std::vector<double> loads;
      loads.reserve(received.size());
      for (const auto& [node, files] : received) {
        loads.push_back(static_cast<double>(files));
      }
      result.files_per_receiver.add(static_cast<double>(lost) /
                                    static_cast<double>(received.size()));
      result.receiver_fairness.add(jain_fairness(loads));
      // Max and p99 share the one interpolation everyone else uses.
      std::sort(loads.begin(), loads.end());
      result.max_files_one_receiver.add(percentile_sorted(loads, 100.0));
      result.p99_files_one_receiver.add(percentile_sorted(loads, 99.0));
    }

    if (params.bounded_load_c > 1.0) {
      // Full-population model on the post-failure ring: every arc's files
      // go to the arc's first surviving clockwise owner (plain), or spill
      // past owners whose accumulated load already exceeds c x mean
      // (bounded, same distinct-candidate walk as owner_of_hash_bounded,
      // falling back to the primary when every candidate is overloaded).
      const std::uint32_t survivors = params.physical_nodes - 1;
      const double cap = params.bounded_load_c *
                         static_cast<double>(params.file_count) /
                         static_cast<double>(survivors);
      std::vector<double> plain(params.physical_nodes, 0.0);
      std::vector<double> bounded(params.physical_nodes, 0.0);
      double spilled_files = 0.0;
      const std::uint32_t want = std::min(
          {1 + params.bounded_load_max_spill, survivors, 8U});
      for (std::size_t i = 0; i < ring.size(); ++i) {
        const std::size_t prev = (i == 0) ? ring.size() - 1 : i - 1;
        const std::uint64_t files =
            count_in_arc(file_hashes, ring[prev].position, ring[i].position);
        if (files == 0) continue;
        std::size_t j = i;
        while (ring[j].node == failed) j = (j + 1) % ring.size();
        const std::uint32_t primary = ring[j].node;
        plain[primary] += static_cast<double>(files);
        std::uint32_t chosen = primary;
        bool placed = false;
        std::uint32_t seen[8];
        std::uint32_t seen_count = 0;
        std::size_t k = j;
        while (seen_count < want) {
          const std::uint32_t cand = ring[k].node;
          k = (k + 1) % ring.size();
          if (cand == failed) continue;
          bool dup = false;
          for (std::uint32_t s = 0; s < seen_count; ++s) {
            if (seen[s] == cand) {
              dup = true;
              break;
            }
          }
          if (dup) continue;
          seen[seen_count++] = cand;
          if (bounded[cand] < cap) {
            chosen = cand;
            placed = true;
            break;
          }
        }
        if (!placed) chosen = primary;
        bounded[chosen] += static_cast<double>(files);
        if (chosen != primary) spilled_files += static_cast<double>(files);
      }
      plain.erase(plain.begin() + failed);
      bounded.erase(bounded.begin() + failed);
      result.peak_to_mean_plain.add(peak_to_mean(plain));
      result.peak_to_mean_bounded.add(peak_to_mean(bounded));
      result.bounded_spill_fraction.add(
          spilled_files / static_cast<double>(params.file_count));
    }
  }
  return result;
}

std::vector<LoadDistributionResult> run_load_distribution_sweep(
    const LoadDistributionParams& base,
    const std::vector<std::uint32_t>& vnode_counts) {
  std::vector<LoadDistributionResult> results;
  results.reserve(vnode_counts.size());
  for (std::uint32_t v : vnode_counts) {
    LoadDistributionParams p = base;
    p.vnodes_per_node = v;
    results.push_back(run_load_distribution(p));
  }
  return results;
}

}  // namespace ftc::ring
