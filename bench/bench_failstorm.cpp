// bench_failstorm.cpp - Failover-storm hardening, on vs off.
//
// The metastable-failure scenario the overload-control layer exists for:
// N co-located clients stream warm reads, one node is crash-stopped
// mid-run, and every client redirects its keys to the same ring successor
// at once.  Unprotected, the successor absorbs duplicate first-touch PFS
// fetches per lost file (one per request, not per file), its unbounded
// queue grows, and retry/hedge amplification feeds the spiral.  The
// protected run turns on the whole PR: deadline propagation, retry
// budgets, class-aware admission control, and the PFS singleflight guard.
//
// Two identical clusters (same environment: multi-worker endpoints, PFS
// latency, eager hedging — the PR2 amplifier is ON in both) differ only
// in the protection knobs.  Measured per phase:
//   - duplicate PFS fetches per victim-owned file after the kill
//     (max/avg; singleflight's contract is max -> 1);
//   - p50/p99 of successful reads before the kill and in the storm
//     window [kill, kill+storm_ms];
//   - goodput (successful reads/s) and failures in the storm window;
//   - shed/expired/coalesced/budget-denial counters.
//
// A third phase (warm=1, the default) layers warm failover on the full
// protection stack: replication.warm_standby write-behind replicates
// every fill to the ring successor, so the storm's redirected reads hit
// standby NVMe instead of the PFS at all.  Its criteria: storm-window
// PFS reads per lost file <= 0.05 and storm p99 within 1.2x the SAME
// phase's healthy p99.
//
// Writes machine-readable BENCH_failstorm.json (override with out=...),
// including (with trace=1, the default) the flight-recorder-derived storm
// timeline — first suspicion, first ring update, first coalesced PFS
// fetch, p99 recovery — and a span-tree proof that one trace id links a
// client attempt through server admission to the PFS singleflight leader.
// Exit 0 iff protected max duplicates <= 1 AND (unless require_p99=0)
// the protected storm-window p99 beats the unprotected one AND (with
// trace=1) the span-tree proof was found in the protected phase AND
// (with warm=1) the warm criteria above hold.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "obs/flight_recorder.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ftc::cluster::Cluster;
using ftc::cluster::ClusterConfig;
using ftc::cluster::FtMode;
using ftc::cluster::NodeId;
using ftc::obs::Record;
using ftc::obs::RecordKind;

/// The bench's options; `cli` is read only while the members initialise.
struct Options {
  explicit Options(const ftc::bench::Args& cli) : cli(cli) {}
  const ftc::bench::Args& cli;
  std::uint32_t nodes = cli.get_u32("nodes", 10);
  std::uint32_t files = cli.get_u32("files", 240);
  std::uint32_t file_kb = cli.get_u32("file_kb", 64);
  /// Simulated PFS read latency.
  std::uint32_t pfs_us = cli.get_u32("pfs_us", 12000);
  /// Concurrent PFS reads at full speed.
  std::uint32_t pfs_slots = cli.get_u32("pfs_slots", 1);
  // Long enough that the healthy p99 is a stable estimate (the warm
  // phase's 1.2x criterion compares against it) and that the warm phase's
  // first-placement pushes finish inside the healthy window.
  std::uint32_t pre_ms = cli.get_u32("pre_ms", 800);  ///< run-up to kill
  /// Measurement window after the kill.
  std::uint32_t storm_ms = cli.get_u32("storm_ms", 1500);
  std::uint32_t think_ms = cli.get_u32("think_ms", 1);  ///< per read
  /// false: skip the p99 criterion (CI smoke).
  bool require_p99 = cli.get_bool("require_p99", true);
  bool trace = cli.get_bool("trace", true);  ///< false: untraced run
  /// Per-node recorder slots.
  std::uint32_t trace_capacity = cli.get_u32("trace_capacity", 1u << 14);
  bool warm = cli.get_bool("warm", true);  ///< false: no warm phase
  std::string out = cli.get_string("out", "BENCH_failstorm.json");
};

ClusterConfig make_config(const Options& args, bool hardened, bool warm) {
  ClusterConfig config;
  config.node_count = args.nodes;
  config.pfs_read_latency = std::chrono::microseconds(args.pfs_us);
  // The job's PFS bandwidth share is finite: duplicate fetches do not run
  // for free in parallel, they queue and stretch — the physics that turns
  // redundant fetch work into tail latency.
  config.pfs_service_slots = args.pfs_slots;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = std::chrono::milliseconds(60);
  config.client.timeout_limit = 2;
  // The PR2 amplifier is deliberately ON in BOTH phases — hedged reads
  // are part of the environment that makes storms storm, not part of the
  // protection under test.  The floor sits just above one coalesced PFS
  // fetch: a dead-owner wait or an unprotected first-touch convoy at the
  // successor crosses it (and a hedge leg then seeds a DUPLICATE fetch on
  // the second successor — the amplification loop), while a read that
  // merely joins one in-flight fetch does not.
  config.client.hedge_reads = true;
  config.client.hedge_min_delay = std::chrono::milliseconds(45);
  config.server.cache_capacity_bytes = 1ULL << 32;
  // Concurrent requests at one endpoint actually contend in both phases;
  // a serial endpoint would hide the duplicate-fetch problem entirely.
  config.server.endpoint_workers = 2;
  if (hardened) {
    config.client.total_deadline = std::chrono::milliseconds(240);
    config.client.retry_budget_ratio = 0.1;
    config.client.retry_budget_cap = 8.0;
    config.client.busy_backoff_cap = std::chrono::milliseconds(8);
    config.server.admission_control = true;
    config.server.admission_queue_limit = 12;
    config.server.pfs_singleflight = true;
    config.server.pfs_guard.max_concurrent_fetches = 6;
    config.server.pfs_guard.fetch_slot_wait = std::chrono::milliseconds(20);
    // The PFS itself is healthy in this scenario; the breaker is armed
    // but not expected to trip.
    config.server.pfs_guard.breaker_failure_threshold = 16;
    config.server.pfs_guard.breaker_cooldown = std::chrono::milliseconds(100);
  }
  if (warm) {
    // Warm failover on top of the full protection stack: every fill is
    // write-behind replicated to its ring successor, so the storm's
    // redirected reads land on standby NVMe instead of the PFS.
    config.client.replication.factor = 2;
    config.client.replication.warm_standby = true;
    // A roomier retry budget than the protected phase: the storm's hedge
    // legs must not drain the bucket and divert reads to the direct-PFS
    // fallback — that fallback is the very traffic the standbys remove.
    config.client.retry_budget_ratio = 0.25;
    config.client.retry_budget_cap = 16.0;
  }
  if (args.trace) {
    // Trace every read: the storm window is short and the recorders are
    // per-node, so full sampling fits the ring without wraparound and the
    // timeline below never misses the first suspicion/coalesce.
    config.obs.tracing = true;
    config.obs.sample_every = 1;
    config.obs.recorder_capacity = args.trace_capacity;
  }
  return config;
}

struct ReadSample {
  double offset_ms = 0.0;  ///< since phase start
  double latency_us = 0.0;
  bool ok = false;
};

struct PhaseResult {
  std::string name;
  std::uint64_t ops = 0;
  double pre_p50_us = 0.0;
  double pre_p99_us = 0.0;
  double storm_p50_us = 0.0;
  double storm_p99_us = 0.0;
  double storm_goodput_rps = 0.0;
  std::uint64_t storm_failures = 0;
  double dup_fetch_max = 0.0;
  double dup_fetch_avg = 0.0;
  std::uint64_t victim_files = 0;
  // Protection-layer counters (all ~0 in the unprotected phase).
  std::uint64_t requests_shed = 0;
  std::uint64_t expired_on_arrival = 0;
  std::uint64_t pfs_coalesced = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t retries_denied_by_budget = 0;
  std::uint64_t deadline_give_ups = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t pfs_reads_total = 0;
  /// PFS reads issued inside the storm window (total at end - at kill).
  std::uint64_t storm_pfs_reads = 0;
  // Warm-failover counters (all 0 with warm_standby off).
  std::uint64_t warm_pushes = 0;
  std::uint64_t warm_restores = 0;
  std::uint64_t warm_replicas_stored = 0;
  std::uint64_t stale_replica_puts = 0;
  bool warm_enabled = false;
  // Flight-recorder-derived storm timeline (trace=1 only; -1 = never
  // observed).  All offsets are ms after the kill.
  bool trace_enabled = false;
  std::uint64_t trace_records = 0;
  double first_suspicion_ms = -1.0;    ///< detector first flags the victim
  double first_ring_update_ms = -1.0;  ///< first placement change
  double first_coalesced_ms = -1.0;    ///< first joiner on an in-flight fetch
  double first_leader_ms = -1.0;       ///< first singleflight leader fetch
  double p99_recovery_ms = -1.0;       ///< first 100ms bin back under 3x pre-p99
  bool span_tree_ok = false;           ///< attempt->server->leader chain found
  std::uint64_t proof_trace_id = 0;
  bool export_has_core = false;   ///< client/server/transport/ring series
  bool export_has_guard = false;  ///< pfs-guard series (hardened phase)
};

/// First record of `kind` at or after the kill, as ms since the kill.
/// `records` is start-sorted (dump_traces contract).
double first_event_ms(const std::vector<Record>& records, RecordKind kind,
                      std::int64_t kill_ns) {
  for (const Record& r : records) {
    if (r.kind == kind && r.start_ns >= kill_ns) {
      return static_cast<double>(r.start_ns - kill_ns) / 1e6;
    }
  }
  return -1.0;
}

/// Offset (ms after the kill) of the first 100 ms storm bin whose p99 is
/// back under 3x the pre-kill p99 — the "recovered" marker of the storm
/// timeline.  Bins with fewer than 5 successful reads cannot call it.
double p99_recovery_after_kill_ms(
    const std::vector<std::vector<ReadSample>>& samples, double kill_offset_ms,
    double pre_p99_us, double end_offset_ms) {
  constexpr double kBinMs = 100.0;
  for (double bin = kill_offset_ms; bin < end_offset_ms; bin += kBinMs) {
    std::vector<double> lat;
    for (const auto& driver_samples : samples) {
      for (const ReadSample& s : driver_samples) {
        if (s.ok && s.offset_ms >= bin && s.offset_ms < bin + kBinMs) {
          lat.push_back(s.latency_us);
        }
      }
    }
    if (lat.size() < 5) continue;
    std::sort(lat.begin(), lat.end());
    if (ftc::bench::percentile(lat, 99.0) <= 3.0 * pre_p99_us) {
      return bin - kill_offset_ms;
    }
  }
  return -1.0;
}

struct SpanTreeProof {
  bool ok = false;
  std::uint64_t trace_id = 0;
  std::vector<Record> spans;  ///< the proof trace's records, start-sorted
};

/// Finds one trace whose span tree links a client attempt through the
/// server execute phase to the PFS singleflight leader — the "one read
/// caused exactly this work" chain the tracing layer exists to show.
SpanTreeProof find_span_tree(const std::vector<Record>& records) {
  SpanTreeProof proof;
  std::unordered_map<std::uint64_t, std::vector<const Record*>> by_trace;
  for (const Record& r : records) {
    if (r.trace_id != 0) by_trace[r.trace_id].push_back(&r);
  }
  for (const auto& [trace_id, spans] : by_trace) {
    const Record* leader = nullptr;
    for (const Record* r : spans) {
      if (r->kind == RecordKind::kPfsFetchLeader) {
        leader = r;
        break;
      }
    }
    if (leader == nullptr) continue;
    const Record* attempt = nullptr;
    for (const Record* r : spans) {
      if (r->span_id == leader->parent_span_id &&
          (r->kind == RecordKind::kClientAttempt ||
           r->kind == RecordKind::kBusyRetry ||
           r->kind == RecordKind::kHedgeLeg)) {
        attempt = r;
        break;
      }
    }
    if (attempt == nullptr) continue;
    const Record* server_phase = nullptr;
    for (const Record* r : spans) {
      if (r->parent_span_id == attempt->span_id &&
          (r->kind == RecordKind::kServerQueue ||
           r->kind == RecordKind::kServerHandle)) {
        server_phase = r;
        break;
      }
    }
    const Record* root = nullptr;
    for (const Record* r : spans) {
      if (r->kind == RecordKind::kClientRead &&
          r->span_id == attempt->parent_span_id) {
        root = r;
        break;
      }
    }
    if (server_phase == nullptr || root == nullptr) continue;
    proof.ok = true;
    proof.trace_id = trace_id;
    for (const Record* r : spans) proof.spans.push_back(*r);
    std::sort(proof.spans.begin(), proof.spans.end(),
              [](const Record& a, const Record& b) {
                return a.start_ns < b.start_ns;
              });
    return proof;
  }
  return proof;
}

void print_span_tree(const SpanTreeProof& proof, std::int64_t origin_ns) {
  if (!proof.ok) return;
  std::printf(
      "span tree, trace %016llx (client attempt -> server admission -> "
      "PFS singleflight leader):\n",
      static_cast<unsigned long long>(proof.trace_id));
  std::unordered_map<std::uint64_t, int> depth;
  for (const Record& r : proof.spans) {
    int d = 0;
    const auto parent = depth.find(r.parent_span_id);
    if (parent != depth.end()) {
      d = parent->second + 1;
    } else if (r.parent_span_id != 0) {
      d = 1;  // parent span lives outside the ring (wrapped) — indent once
    }
    depth[r.span_id] = d;
    const std::string_view detail = r.detail_view();
    std::printf("  %*s%-18s node %-3u +%9.3f ms  %8.3f ms  %.*s\n", 2 * d, "",
                ftc::obs::record_kind_name(r.kind), r.node,
                static_cast<double>(r.start_ns - origin_ns) / 1e6,
                static_cast<double>(r.end_ns - r.start_ns) / 1e6,
                static_cast<int>(detail.size()), detail.data());
  }
}

PhaseResult run_phase(const std::string& name, const Options& args,
                      bool hardened, bool warm = false) {
  Cluster cluster(make_config(args, hardened, warm));
  const auto paths = cluster.stage_dataset(args.files, args.file_kb * 1024);
  cluster.warm_caches(paths);

  const NodeId victim = args.nodes - 1;
  // The files the kill will orphan, per the shared pre-kill ring view.
  std::vector<std::string> victim_paths;
  for (const auto& path : paths) {
    if (cluster.client(0).current_owner(path) == victim) {
      victim_paths.push_back(path);
    }
  }

  // One driver thread per surviving node's co-located client (the
  // victim's own client dies with it).  All drivers walk the dataset in
  // the SAME order, as samplers sharing a shuffled epoch do — which is
  // exactly what convoys first-touch misses onto the successor.
  std::vector<NodeId> drivers;
  for (NodeId n = 0; n < args.nodes; ++n) {
    if (n != victim) drivers.push_back(n);
  }
  const auto phase_start = Clock::now();
  const std::int64_t phase_start_ns = ftc::obs::now_ns();
  const auto kill_at = phase_start + std::chrono::milliseconds(args.pre_ms);
  const auto stop_at =
      kill_at + std::chrono::milliseconds(args.storm_ms);
  std::vector<std::vector<ReadSample>> samples(drivers.size());
  std::vector<std::thread> threads;
  threads.reserve(drivers.size());
  for (std::size_t d = 0; d < drivers.size(); ++d) {
    threads.emplace_back([d, &drivers, &cluster, &paths, &samples,
                          phase_start, stop_at, think = args.think_ms] {
      auto& client = cluster.client(drivers[d]);
      std::size_t i = 0;
      while (Clock::now() < stop_at) {
        const auto& path = paths[i % paths.size()];
        ++i;
        const auto start = Clock::now();
        const bool ok = client.read_file(path).is_ok();
        const auto end = Clock::now();
        samples[d].push_back(
            {std::chrono::duration<double, std::milli>(start - phase_start)
                 .count(),
             std::chrono::duration<double, std::micro>(end - start).count(),
             ok});
        if (think > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(think));
        }
      }
    });
  }

  // Main thread springs the fault at the appointed time.
  std::this_thread::sleep_until(kill_at);
  std::vector<std::uint64_t> counts_before;
  counts_before.reserve(victim_paths.size());
  for (const auto& path : victim_paths) {
    counts_before.push_back(cluster.pfs().read_count(path));
  }
  cluster.fail_node(victim);
  // Total PFS traffic from here on is the storm's bill: with warm
  // standbys every redirected read should land on the successor's NVMe,
  // so this delta is the headline "zero PFS fetches" number.
  const std::uint64_t pfs_reads_at_kill = cluster.pfs().read_count();
  const std::int64_t kill_ns = ftc::obs::now_ns();
  const double kill_offset_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - phase_start)
          .count();
  for (auto& thread : threads) thread.join();

  PhaseResult result;
  result.name = name;
  result.warm_enabled = warm;
  result.victim_files = victim_paths.size();
  std::uint64_t dup_total = 0;
  std::uint64_t dup_max = 0;
  for (std::size_t i = 0; i < victim_paths.size(); ++i) {
    const std::uint64_t dup =
        cluster.pfs().read_count(victim_paths[i]) - counts_before[i];
    dup_total += dup;
    dup_max = std::max(dup_max, dup);
  }
  result.dup_fetch_max = static_cast<double>(dup_max);
  result.dup_fetch_avg =
      victim_paths.empty()
          ? 0.0
          : static_cast<double>(dup_total) /
                static_cast<double>(victim_paths.size());

  std::vector<double> pre_lat;
  std::vector<double> storm_lat;
  for (const auto& driver_samples : samples) {
    result.ops += driver_samples.size();
    for (const ReadSample& s : driver_samples) {
      if (s.offset_ms < kill_offset_ms) {
        if (s.ok) pre_lat.push_back(s.latency_us);
      } else {
        if (s.ok) {
          storm_lat.push_back(s.latency_us);
        } else {
          ++result.storm_failures;
        }
      }
    }
  }
  std::sort(pre_lat.begin(), pre_lat.end());
  std::sort(storm_lat.begin(), storm_lat.end());
  result.pre_p50_us = ftc::bench::percentile(pre_lat, 50.0);
  result.pre_p99_us = ftc::bench::percentile(pre_lat, 99.0);
  result.storm_p50_us = ftc::bench::percentile(storm_lat, 50.0);
  result.storm_p99_us = ftc::bench::percentile(storm_lat, 99.0);
  result.storm_goodput_rps = static_cast<double>(storm_lat.size()) /
                             (static_cast<double>(args.storm_ms) / 1000.0);

  for (NodeId n = 0; n < args.nodes; ++n) {
    const auto client_stats = cluster.client(n).stats_snapshot();
    result.busy_rejections += client_stats.busy_rejections;
    result.retries_denied_by_budget += client_stats.retries_denied_by_budget;
    result.deadline_give_ups += client_stats.deadline_give_ups;
    result.hedges_launched += client_stats.hedges_launched;
    result.warm_pushes += client_stats.warm_pushes;
    result.warm_restores += client_stats.warm_restores;
    const auto server_stats = cluster.server(n).stats_snapshot();
    result.expired_on_arrival += server_stats.expired_on_arrival;
    result.pfs_coalesced += server_stats.pfs_coalesced;
    result.warm_replicas_stored += server_stats.warm_replicas_stored;
    result.stale_replica_puts += server_stats.stale_replica_puts;
    result.requests_shed += cluster.transport().stats(n).requests_shed;
  }
  result.pfs_reads_total = cluster.pfs().read_count();
  result.storm_pfs_reads = result.pfs_reads_total - pfs_reads_at_kill;

  // Storm timeline + span-tree proof, straight from the flight recorders.
  if (args.trace) {
    result.trace_enabled = true;
    const std::vector<Record> records = cluster.dump_traces();
    result.trace_records = records.size();
    result.first_suspicion_ms =
        first_event_ms(records, RecordKind::kSuspicion, kill_ns);
    result.first_ring_update_ms =
        first_event_ms(records, RecordKind::kRingUpdate, kill_ns);
    result.first_coalesced_ms =
        first_event_ms(records, RecordKind::kPfsFetchJoiner, kill_ns);
    result.first_leader_ms =
        first_event_ms(records, RecordKind::kPfsFetchLeader, kill_ns);
    result.p99_recovery_ms = p99_recovery_after_kill_ms(
        samples, kill_offset_ms, result.pre_p99_us,
        kill_offset_ms + static_cast<double>(args.storm_ms));
    const SpanTreeProof proof = find_span_tree(records);
    result.span_tree_ok = proof.ok;
    result.proof_trace_id = proof.trace_id;
    if (hardened) print_span_tree(proof, phase_start_ns);
  }

  // The unified exporter must cover every layer the storm touches.
  const std::string prom = cluster.metrics_registry().export_prometheus_text();
  const auto has = [&prom](const char* needle) {
    return prom.find(needle) != std::string::npos;
  };
  result.export_has_core =
      has("ftc_client_reads_total") && has("ftc_server_reads_total") &&
      has("ftc_transport_received_total") && has("ftc_client_ring_updates_total");
  result.export_has_guard = has("ftc_pfs_guard_fetches_total");
  return result;
}

/// Storm-window PFS reads per lost file (0 when nothing was lost).
double storm_pfs_per_lost(const PhaseResult& p) {
  return p.victim_files == 0 ? 0.0
                             : static_cast<double>(p.storm_pfs_reads) /
                                   static_cast<double>(p.victim_files);
}

void print_phase(const PhaseResult& p) {
  std::printf(
      "%-12s %7llu ops  pre p99 %8.0f us | storm p50 %8.0f us p99 %8.0f us "
      "goodput %7.0f/s fail %llu | dup max %.0f avg %.2f (%llu files)\n",
      p.name.c_str(), static_cast<unsigned long long>(p.ops), p.pre_p99_us,
      p.storm_p50_us, p.storm_p99_us, p.storm_goodput_rps,
      static_cast<unsigned long long>(p.storm_failures), p.dup_fetch_max,
      p.dup_fetch_avg, static_cast<unsigned long long>(p.victim_files));
  std::printf(
      "             shed %llu expired %llu coalesced %llu busy %llu "
      "budget_denied %llu give_ups %llu hedges %llu pfs_reads %llu\n",
      static_cast<unsigned long long>(p.requests_shed),
      static_cast<unsigned long long>(p.expired_on_arrival),
      static_cast<unsigned long long>(p.pfs_coalesced),
      static_cast<unsigned long long>(p.busy_rejections),
      static_cast<unsigned long long>(p.retries_denied_by_budget),
      static_cast<unsigned long long>(p.deadline_give_ups),
      static_cast<unsigned long long>(p.hedges_launched),
      static_cast<unsigned long long>(p.pfs_reads_total));
  if (p.warm_enabled) {
    std::printf(
        "             warm pushes %llu restores %llu stored %llu stale %llu | "
        "storm pfs reads %llu (%.3f per lost file)\n",
        static_cast<unsigned long long>(p.warm_pushes),
        static_cast<unsigned long long>(p.warm_restores),
        static_cast<unsigned long long>(p.warm_replicas_stored),
        static_cast<unsigned long long>(p.stale_replica_puts),
        static_cast<unsigned long long>(p.storm_pfs_reads),
        storm_pfs_per_lost(p));
  }
  if (p.trace_enabled) {
    std::printf(
        "             trace %llu records | after kill: suspicion %+.1f ms "
        "ring %+.1f ms coalesced %+.1f ms leader %+.1f ms p99_recovery "
        "%+.1f ms | span_tree %s export core=%s guard=%s\n",
        static_cast<unsigned long long>(p.trace_records), p.first_suspicion_ms,
        p.first_ring_update_ms, p.first_coalesced_ms, p.first_leader_ms,
        p.p99_recovery_ms, p.span_tree_ok ? "OK" : "absent",
        p.export_has_core ? "ok" : "MISSING",
        p.export_has_guard ? "ok" : "absent");
  }
}

ftc::bench::Json phase_json(const PhaseResult& p) {
  ftc::bench::Json json{
      {"ops", p.ops},
      {"pre_p50_us", p.pre_p50_us},
      {"pre_p99_us", p.pre_p99_us},
      {"storm_p50_us", p.storm_p50_us},
      {"storm_p99_us", p.storm_p99_us},
      {"storm_goodput_rps", p.storm_goodput_rps},
      {"storm_failures", p.storm_failures},
      {"dup_fetch_max", p.dup_fetch_max},
      {"dup_fetch_avg", p.dup_fetch_avg},
      {"victim_files", p.victim_files},
      {"requests_shed", p.requests_shed},
      {"expired_on_arrival", p.expired_on_arrival},
      {"pfs_coalesced", p.pfs_coalesced},
      {"busy_rejections", p.busy_rejections},
      {"retries_denied_by_budget", p.retries_denied_by_budget},
      {"deadline_give_ups", p.deadline_give_ups},
      {"hedges_launched", p.hedges_launched},
      {"pfs_reads_total", p.pfs_reads_total},
      {"storm_pfs_reads", p.storm_pfs_reads}};
  if (p.warm_enabled) {
    json.set("warm", {{"pushes", p.warm_pushes},
                      {"restores", p.warm_restores},
                      {"replicas_stored", p.warm_replicas_stored},
                      {"stale_puts", p.stale_replica_puts},
                      {"storm_pfs_per_lost_file", storm_pfs_per_lost(p)}});
  }
  if (p.trace_enabled) {
    char trace_id[32];
    std::snprintf(trace_id, sizeof(trace_id), "%016llx",
                  static_cast<unsigned long long>(p.proof_trace_id));
    json.set("trace", {{"records", p.trace_records},
                       {"first_suspicion_ms", p.first_suspicion_ms},
                       {"first_ring_update_ms", p.first_ring_update_ms},
                       {"first_coalesced_ms", p.first_coalesced_ms},
                       {"first_leader_ms", p.first_leader_ms},
                       {"p99_recovery_ms", p.p99_recovery_ms},
                       {"span_tree_ok", p.span_tree_ok},
                       {"proof_trace_id", trace_id},
                       {"export_has_core", p.export_has_core},
                       {"export_has_guard", p.export_has_guard}});
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const ftc::bench::Args cli(argc, argv);
  const Options args(cli);
  cli.finish();

  const PhaseResult unprotected =
      run_phase("unprotected", args, /*hardened=*/false);
  const PhaseResult protected_run =
      run_phase("protected", args, /*hardened=*/true);
  PhaseResult warm_run;
  if (args.warm) {
    warm_run = run_phase("warm", args, /*hardened=*/true, /*warm=*/true);
  }

  print_phase(unprotected);
  print_phase(protected_run);
  if (args.warm) print_phase(warm_run);

  const bool dup_ok = protected_run.dup_fetch_max <= 1.0;
  const bool p99_ok =
      protected_run.storm_p99_us < unprotected.storm_p99_us;
  // With tracing on, the protected phase must yield the full causal chain
  // (client attempt -> server admission -> singleflight leader) plus the
  // cross-layer exporter series — the observability acceptance criteria.
  const bool trace_ok =
      !args.trace ||
      (protected_run.span_tree_ok && protected_run.export_has_core &&
       protected_run.export_has_guard);
  // Warm-failover criteria: the standbys must make the storm essentially
  // PFS-free (<= 0.05 fetches per lost file) AND keep the storm p99
  // within 1.2x of the SAME phase's healthy p99 — a dead node should cost
  // one redirect, not a latency regime change.
  const double warm_pfs_per_lost =
      args.warm ? storm_pfs_per_lost(warm_run) : 0.0;
  const bool warm_pfs_ok = !args.warm || warm_pfs_per_lost <= 0.05;
  // The 1 ms absolute floor keeps the relative criterion meaningful when
  // both quantiles sit at millisecond scale: on a shared box the healthy
  // p99 estimate itself wobbles by ~0.5 ms run to run, while an actual
  // storm is a 10x regime change that clears any floor.
  const double warm_p99_bound =
      std::max(1.2 * warm_run.pre_p99_us, warm_run.pre_p99_us + 1000.0);
  const bool warm_p99_ok =
      !args.warm || warm_run.storm_p99_us <= warm_p99_bound;

  ftc::bench::Json doc = ftc::bench::artifact("bench_failstorm", cli);
  ftc::bench::Json phases{{unprotected.name, phase_json(unprotected)},
                          {protected_run.name, phase_json(protected_run)}};
  if (args.warm) phases.set(warm_run.name, phase_json(warm_run));
  doc.set("phases", phases);
  doc.set("protected_dup_max_le_1", dup_ok);
  doc.set("storm_p99_improved", p99_ok);
  doc.set("p99_criterion_enforced", args.require_p99);
  doc.set("trace_criterion_enforced", args.trace);
  doc.set("trace_span_tree_and_export_ok", trace_ok);
  doc.set("warm_criterion_enforced", args.warm);
  doc.set("warm_storm_pfs_per_lost_file", warm_pfs_per_lost);
  doc.set("warm_storm_pfs_ok", warm_pfs_ok);
  doc.set("warm_storm_p99_within_1_2x_healthy", warm_p99_ok);
  ftc::bench::write_json(args.out, doc);

  ftc::bench::Gate gate;
  gate.check(dup_ok, "protected duplicate PFS fetches max %.0f, bound 1",
             protected_run.dup_fetch_max);
  if (args.require_p99) {
    gate.check(p99_ok, "protected storm p99 %.0f us below unprotected %.0f us",
               protected_run.storm_p99_us, unprotected.storm_p99_us);
  }
  if (args.trace) {
    gate.check(trace_ok, "trace proof: span tree %s, exporter series %s",
               protected_run.span_tree_ok ? "found" : "MISSING",
               protected_run.export_has_core && protected_run.export_has_guard
                   ? "complete"
                   : "INCOMPLETE");
  }
  if (args.warm) {
    gate.check(warm_pfs_ok,
               "warm storm %.3f PFS reads per lost file, bound 0.05",
               warm_pfs_per_lost);
    if (args.require_p99) {
      gate.check(warm_p99_ok,
                 "warm storm p99 %.0f us, bound %.0f us (max of 1.2x and "
                 "+1 ms over healthy %.0f us)",
                 warm_run.storm_p99_us, warm_p99_bound, warm_run.pre_p99_us);
    }
  }
  return gate.exit_code();
}
