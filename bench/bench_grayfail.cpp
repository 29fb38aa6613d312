// bench_grayfail.cpp - Tail latency under gray failures: hedged reads and
// probation/reinstatement.
//
// The paper's detector only handles crash-stop nodes; a node that is alive
// but *slow* (the canonical gray failure) never trips TIMEOUT_LIMIT and
// silently drags every read it owns to its added latency.  This bench
// quantifies that and the two defenses, on the real threaded cluster:
//
//   healthy        all nodes fast — the baseline read-latency profile;
//   slow_unhedged  one node +slow_ms of injected latency, hedging off:
//                  p99 collapses to the injected latency (the problem);
//   slow_hedged    same fault, hedged reads on: after the adaptive hedge
//                  delay the client races the ring successor and takes
//                  the first answer, so p99 stays near the healthy tail;
//   reinstatement  crash-stop a node, let probation remove it, revive it
//                  (NVMe wiped) and verify the backoff probe re-adds it
//                  via the elastic path with keys recached on first touch.
//
// Writes machine-readable BENCH_grayfail.json (override with out=...),
// including the headline bound: slow_hedged p99 < 3x healthy p99.  With
// trace=1 (the default) the reinstatement phase also reports the
// flight-recorder timeline: kill -> first suspicion -> probation ring
// update -> reinstatement ring update.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/failure_injector.hpp"
#include "membership/event.hpp"
#include "obs/flight_recorder.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ftc::cluster::Cluster;
using ftc::cluster::ClusterConfig;
using ftc::cluster::FtMode;
using ftc::cluster::GrayFailureInjector;
using ftc::cluster::NodeHealth;
using ftc::cluster::NodeId;
using ftc::membership::RingEventType;
using ftc::obs::Record;
using ftc::obs::RecordKind;

/// The bench's options; `cli` is read only while the members initialise.
struct Options {
  explicit Options(const ftc::bench::Args& cli) : cli(cli) {}
  const ftc::bench::Args& cli;
  std::uint32_t nodes = cli.get_u32("nodes", 4);
  std::uint32_t files = cli.get_u32("files", 48);
  std::uint32_t file_kb = cli.get_u32("file_kb", 256);
  std::uint32_t passes = cli.get_u32("passes", 6);
  std::uint32_t slow_ms = cli.get_u32("slow_ms", 10);
  // Per-read think time, modelling the compute step between batch loads.
  // Keeps the offered load on the slow node below its degraded service
  // rate: without pacing, hedged clients stop blocking on the slow node
  // and its queue grows without bound — an artifact of the closed-loop
  // harness, not of hedging (real ingest is throttled by the GPU).
  std::uint32_t think_ms = cli.get_u32("think_ms", 15);
  bool trace = cli.get_bool("trace", true);  ///< false: untraced run
  std::string out = cli.get_string("out", "BENCH_grayfail.json");
};

ClusterConfig make_cluster_config(const Options& args, bool hedging) {
  ClusterConfig config;
  config.node_count = args.nodes;
  config.client.mode = FtMode::kHashRingRecache;
  // Gray-failure regime: the injected slowness must stay far below the
  // RPC deadline so the detector never fires and only hedging can help.
  config.client.rpc_timeout = std::chrono::milliseconds(200);
  config.client.timeout_limit = 2;
  config.client.probe_backoff = std::chrono::milliseconds(5);
  config.client.probe_backoff_cap = std::chrono::milliseconds(40);
  config.client.hedge_reads = hedging;
  // Eager hedging: on this single-socket harness an extra RPC is nearly
  // free next to a 10 ms gray stall, so hedge right at the healthy p75.
  config.client.hedge_quantile = 75.0;
  config.client.hedge_delay_multiplier = 1.0;
  config.client.hedge_min_delay = std::chrono::microseconds(100);
  config.server.async_data_mover = true;
  config.server.cache_capacity_bytes = 1ULL << 32;
  if (args.trace) {
    config.obs.tracing = true;
    config.obs.sample_every = 1;
    config.obs.recorder_capacity = 1u << 14;
  }
  return config;
}

struct PhaseResult {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedge_wins = 0;
};

/// One pass-loop of warm reads per node (each client driven by its own
/// thread, as in a co-located training job).
PhaseResult run_read_phase(const std::string& name, Cluster& cluster,
                           const std::vector<std::string>& paths,
                           std::uint32_t passes,
                           std::chrono::milliseconds think) {
  std::uint64_t hedges_before = 0;
  std::uint64_t wins_before = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto s = cluster.client(n).stats_snapshot();
    hedges_before += s.hedges_launched;
    wins_before += s.hedge_wins;
  }

  const std::uint32_t threads = cluster.node_count();
  std::vector<std::vector<double>> latencies(threads);
  std::vector<std::uint64_t> failures(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([t, passes, think, &cluster, &paths, &latencies,
                          &failures] {
      auto& client = cluster.client(t);
      for (std::uint32_t pass = 0; pass < passes; ++pass) {
        for (const auto& path : paths) {
          const auto start = Clock::now();
          if (client.read_file(path).is_ok()) {
            latencies[t].push_back(std::chrono::duration<double, std::micro>(
                                       Clock::now() - start)
                                       .count());
          } else {
            ++failures[t];
          }
          if (think.count() > 0) std::this_thread::sleep_for(think);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  PhaseResult result;
  result.name = name;
  std::vector<double> merged;
  for (auto& l : latencies) merged.insert(merged.end(), l.begin(), l.end());
  for (std::uint64_t f : failures) result.failures += f;
  result.ops = merged.size();
  std::sort(merged.begin(), merged.end());
  result.p50_us = ftc::bench::percentile(merged, 50.0);
  result.p99_us = ftc::bench::percentile(merged, 99.0);
  result.max_us = merged.empty() ? 0.0 : merged.back();
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    const auto s = cluster.client(n).stats_snapshot();
    result.hedges_launched += s.hedges_launched;
    result.hedge_wins += s.hedge_wins;
  }
  result.hedges_launched -= hedges_before;
  result.hedge_wins -= wins_before;
  return result;
}

struct ReinstatementResult {
  bool flagged = false;
  bool reinstated = false;
  bool ownership_regained = false;
  bool recached_on_first_touch = false;
  std::uint64_t probes_sent = 0;
  double time_to_reinstate_ms = 0.0;
  // Flight-recorder timeline (trace=1 only; -1 = event never recorded).
  bool trace_enabled = false;
  std::uint64_t trace_records = 0;
  double suspicion_ms = -1.0;   ///< kill -> detector flags the victim
  double probation_ms = -1.0;   ///< kill -> probation ring update
  double reinstate_ms = -1.0;   ///< revive -> reinstatement ring update
};

/// Crash-stop a node, let the client put it in probation, revive it with
/// its cache wiped, and measure the probe-driven return to the ring.
ReinstatementResult run_reinstatement(Cluster& cluster,
                                      const std::vector<std::string>& paths) {
  ReinstatementResult result;
  const NodeId victim = 1;
  auto& client = cluster.client(0);

  // Reconstructs the detection/recovery timeline from the per-node flight
  // recorders; called before every return so partial runs still report
  // whatever markers were reached.
  const auto derive_timeline = [&cluster, victim](ReinstatementResult& r,
                                                  std::int64_t fail_ns,
                                                  std::int64_t revive_ns) {
    if (cluster.flight_recorder(0) == nullptr) return;
    r.trace_enabled = true;
    const std::vector<Record> records = cluster.dump_traces();
    r.trace_records = records.size();
    for (const Record& rec : records) {
      if (rec.node != victim) continue;
      if (r.suspicion_ms < 0 && rec.kind == RecordKind::kSuspicion &&
          rec.start_ns >= fail_ns) {
        r.suspicion_ms = static_cast<double>(rec.start_ns - fail_ns) / 1e6;
      }
      if (rec.kind != RecordKind::kRingUpdate) continue;
      if (r.probation_ms < 0 &&
          rec.code == static_cast<std::uint32_t>(RingEventType::kProbation) &&
          rec.start_ns >= fail_ns) {
        r.probation_ms = static_cast<double>(rec.start_ns - fail_ns) / 1e6;
      }
      if (r.reinstate_ms < 0 &&
          rec.code == static_cast<std::uint32_t>(RingEventType::kReinstate) &&
          rec.start_ns >= revive_ns) {
        r.reinstate_ms = static_cast<double>(rec.start_ns - revive_ns) / 1e6;
      }
    }
  };

  std::string victim_path;
  std::string driver_path;
  for (const auto& path : paths) {
    const NodeId owner = client.current_owner(path);
    if (owner == victim && victim_path.empty()) victim_path = path;
    if (owner != victim && driver_path.empty()) driver_path = path;
    if (!victim_path.empty() && !driver_path.empty()) break;
  }
  if (victim_path.empty() || driver_path.empty()) return result;

  const std::int64_t fail_ns = ftc::obs::now_ns();
  // Until the revive actually happens, no record can qualify as a
  // reinstatement marker.
  std::int64_t revive_ns = std::numeric_limits<std::int64_t>::max();
  cluster.fail_node(victim);
  // Detection: successive timeouts move the node suspect -> probation.
  // Bounded loop because async verdicts (probe/hedge legs) land through
  // the client mailbox on subsequent reads rather than inline.
  const auto flag_deadline = Clock::now() + std::chrono::seconds(5);
  while (client.node_health(victim) != NodeHealth::kProbation &&
         Clock::now() < flag_deadline) {
    (void)client.read_file(victim_path);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.flagged = client.node_health(victim) == NodeHealth::kProbation;
  if (!result.flagged) {
    derive_timeline(result, fail_ns, revive_ns);
    return result;
  }

  cluster.restore_node(victim, /*lose_cache=*/true);
  revive_ns = ftc::obs::now_ns();
  const auto revive_time = Clock::now();
  const auto deadline = revive_time + std::chrono::seconds(5);
  while (client.stats_snapshot().nodes_reinstated == 0 &&
         Clock::now() < deadline) {
    (void)client.read_file(driver_path);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto stats = client.stats_snapshot();
  result.reinstated = stats.nodes_reinstated > 0;
  result.probes_sent = stats.probes_sent;
  result.time_to_reinstate_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - revive_time)
          .count();
  if (!result.reinstated) {
    derive_timeline(result, fail_ns, revive_ns);
    return result;
  }

  result.ownership_regained = client.current_owner(victim_path) == victim;
  const auto misses_before =
      cluster.server(victim).stats_snapshot().cache_misses;
  (void)client.read_file(victim_path);
  result.recached_on_first_touch =
      cluster.server(victim).stats_snapshot().cache_misses > misses_before;
  derive_timeline(result, fail_ns, revive_ns);
  return result;
}

ftc::bench::Json phase_json(const PhaseResult& p) {
  return {{"ops", p.ops},
          {"failures", p.failures},
          {"p50_us", p.p50_us},
          {"p99_us", p.p99_us},
          {"max_us", p.max_us},
          {"hedges_launched", p.hedges_launched},
          {"hedge_wins", p.hedge_wins}};
}

ftc::bench::Json reinstatement_json(const ReinstatementResult& r) {
  ftc::bench::Json json{{"flagged", r.flagged},
                        {"reinstated", r.reinstated},
                        {"ownership_regained", r.ownership_regained},
                        {"recached_on_first_touch", r.recached_on_first_touch},
                        {"probes_sent", r.probes_sent},
                        {"time_to_reinstate_ms", r.time_to_reinstate_ms}};
  if (r.trace_enabled) {
    json.set("trace", {{"records", r.trace_records},
                       {"suspicion_ms", r.suspicion_ms},
                       {"probation_ms", r.probation_ms},
                       {"reinstate_ms", r.reinstate_ms}});
  }
  return json;
}

void print_phase(const PhaseResult& p) {
  std::printf("%-14s %8llu ops %6llu fail  p50 %9.1f us  p99 %9.1f us  "
              "hedges %llu (wins %llu)\n",
              p.name.c_str(), static_cast<unsigned long long>(p.ops),
              static_cast<unsigned long long>(p.failures), p.p50_us,
              p.p99_us, static_cast<unsigned long long>(p.hedges_launched),
              static_cast<unsigned long long>(p.hedge_wins));
}

}  // namespace

int main(int argc, char** argv) {
  const ftc::bench::Args cli(argc, argv);
  const Options args(cli);
  cli.finish();
  const std::uint32_t file_bytes = args.file_kb * 1024;
  const NodeId slow_node = args.nodes - 1;

  const std::chrono::milliseconds think(args.think_ms);

  // --- healthy + slow_hedged share a hedging cluster --------------------
  Cluster hedged(make_cluster_config(args, /*hedging=*/true));
  const auto paths = hedged.stage_dataset(args.files, file_bytes);
  hedged.warm_caches(paths);
  const auto healthy =
      run_read_phase("healthy", hedged, paths, args.passes, think);

  GrayFailureInjector injector(hedged.transport(), /*seed=*/1);
  injector.make_slow(slow_node, std::chrono::milliseconds(args.slow_ms));
  const auto slow_hedged =
      run_read_phase("slow_hedged", hedged, paths, args.passes, think);
  injector.clear_slow(slow_node);

  // --- slow_unhedged: same fault, hedging off (fresh cluster) -----------
  Cluster unhedged(make_cluster_config(args, /*hedging=*/false));
  const auto unhedged_paths = unhedged.stage_dataset(args.files, file_bytes);
  unhedged.warm_caches(unhedged_paths);
  GrayFailureInjector unhedged_injector(unhedged.transport(), /*seed=*/1);
  unhedged_injector.make_slow(slow_node,
                              std::chrono::milliseconds(args.slow_ms));
  const auto slow_unhedged = run_read_phase(
      "slow_unhedged", unhedged, unhedged_paths, args.passes, think);
  unhedged_injector.clear_slow(slow_node);

  // --- reinstatement: crash-stop detection is synchronous on the
  // unhedged client, which keeps this phase deterministic -----------------
  const auto reinstatement = run_reinstatement(unhedged, unhedged_paths);

  const double ratio =
      healthy.p99_us > 0.0 ? slow_hedged.p99_us / healthy.p99_us : 0.0;
  const bool bound_ok = ratio > 0.0 && ratio < 3.0;

  print_phase(healthy);
  print_phase(slow_unhedged);
  print_phase(slow_hedged);
  std::printf("reinstatement: flagged=%d reinstated=%d ring=%d "
              "first_touch_recache=%d probes=%llu t=%.1f ms\n",
              reinstatement.flagged, reinstatement.reinstated,
              reinstatement.ownership_regained,
              reinstatement.recached_on_first_touch,
              static_cast<unsigned long long>(reinstatement.probes_sent),
              reinstatement.time_to_reinstate_ms);
  if (reinstatement.trace_enabled) {
    std::printf("reinstatement timeline (flight recorder, %llu records): "
                "suspicion %+.1f ms probation %+.1f ms after kill; "
                "reinstate %+.1f ms after revive\n",
                static_cast<unsigned long long>(reinstatement.trace_records),
                reinstatement.suspicion_ms, reinstatement.probation_ms,
                reinstatement.reinstate_ms);
  }

  ftc::bench::Json doc = ftc::bench::artifact("bench_grayfail", cli);
  doc.set("phases", {{healthy.name, phase_json(healthy)},
                     {slow_unhedged.name, phase_json(slow_unhedged)},
                     {slow_hedged.name, phase_json(slow_hedged)}});
  doc.set("hedged_p99_over_healthy_p99", ratio);
  doc.set("hedged_p99_within_3x_healthy", bound_ok);
  doc.set("reinstatement", reinstatement_json(reinstatement));
  ftc::bench::write_json(args.out, doc);

  ftc::bench::Gate gate;
  gate.check(bound_ok, "hedged p99 / healthy p99 = %.2f, bound 3x", ratio);
  gate.check(reinstatement.reinstated,
             "the revived node was reinstated by the backoff probe");
  return gate.exit_code();
}
