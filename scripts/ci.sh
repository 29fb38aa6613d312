#!/usr/bin/env bash
# Full CI gate: release build + the tier-1 test suite, then both sanitizer
# passes over the concurrency-relevant binaries (scripts/sanitize.sh).
#
# Tier-1 (ROADMAP.md) is the whole ctest suite — every test is labeled
# `tier1`, so `ctest -L tier1` and a bare `ctest` run the same set today;
# the label exists so future tier-2 (long-haul soak, large-scale bench
# gates) can join the tree without slowing this script down.
#
# Usage: scripts/ci.sh [build_dir]
set -euo pipefail

build_dir="${1:-build}"
source_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

echo "=== configure + build (${build_dir})"
cmake -B "${build_dir}" -S "${source_dir}" > /dev/null
cmake --build "${build_dir}" -j

echo "=== tier-1 tests"
ctest --test-dir "${build_dir}" -L tier1 --output-on-failure -j

echo "=== repository benchmark self-test (perfbench/selftest.py)"
# Every perfbench workload at tiny sizes, traced and untraced (~1 min):
# fails when a library change breaks the benchmark's own correctness
# checks (a CRC mismatch, a PFS read on small_hit after warm-up, an
# aborted training job) before a full benchmark run would notice.
(cd "${source_dir}" && python3 perfbench/selftest.py)

echo "=== bench argument rejection (every bench, misspelled key and bad number)"
# Every bench binary parses its key=value options with the one strict
# harness parser (bench/bench_common): a misspelled key or a value that is
# not wholly a number must exit 2 with the usage line before any work
# starts, never run with a silently ignored or half-read option.
# bench_micro_hashring is exempt: its flags belong to google-benchmark.
for bench in "${build_dir}"/bench/bench_*; do
  [ "$(basename "${bench}")" = bench_micro_hashring ] && continue
  for bad in "alpha=1.1" "files=12x"; do
    rc=0
    "${bench}" "${bad}" > /dev/null 2>&1 || rc=$?
    if [ "${rc}" -ne 2 ]; then
      echo "$(basename "${bench}") ${bad}: exit ${rc}, expected 2"
      exit 1
    fi
  done
done
echo "every bench exits 2 on an unknown key and on files=12x"

echo "=== failover-storm smoke (bench_failstorm, reduced load)"
# Few-second smoke: exercises deadlines, admission, retry budgets, and
# the PFS singleflight end-to-end and enforces the duplicate-fetch
# criterion (protected max <= 1).  The p99 comparison needs the full
# default load to be meaningful, so require_p99=0 here; the recorded
# baseline (BENCH_failstorm.json) keeps both criteria.  warm=0: the
# warm-failover phase gets its own smoke below with its own gate.
"${build_dir}/bench/bench_failstorm" \
  nodes=6 files=60 pfs_us=4000 pre_ms=200 storm_ms=400 \
  require_p99=0 warm=0 out="${build_dir}/BENCH_failstorm_smoke.json"

echo "=== warm-failover smoke (bench_failstorm warm=1, reduced load)"
# Same reduced load with the warm-standby phase on.  The exit code
# enforces the warm phase's PFS criterion — storm-window PFS reads per
# lost file <= 0.05, i.e. the ring-successor standbys (not the PFS)
# absorb the redirected reads.  Belt and suspenders, the artifact is
# checked too: the smoke must observe a PFS-free storm outright.
"${build_dir}/bench/bench_failstorm" \
  nodes=6 files=60 pfs_us=4000 pre_ms=200 storm_ms=400 \
  require_p99=0 warm=1 out="${build_dir}/BENCH_failstorm_warm_smoke.json"
python3 - "${build_dir}/BENCH_failstorm_warm_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
warm = doc["phases"]["warm"]
assert doc["warm_storm_pfs_ok"], "warm storm exceeded 0.05 PFS reads/lost file"
assert warm["storm_pfs_reads"] == 0, (
    f"warm storm touched the PFS {warm['storm_pfs_reads']} times")
print(f"warm storm PFS-free: {warm['warm']['pushes']} standby pushes, "
      f"{warm['warm']['restores']} restores, "
      f"{warm['victim_files']} files lost, 0 PFS reads")
EOF

echo "=== skew-placement smoke (bench_skew, reduced load)"
# Few-second smoke at the canonical skew point (alpha=1.1): bounded-load
# spill + hot-file fanout against the single-owner baseline, enforcing the
# bounded-load contract — the skew-tolerant run's peak node share must not
# exceed c x mean by more than 10%.  The goodput-ratio criterion needs the
# full default load to be meaningful, so require_goodput=0 here; the
# recorded BENCH_skew.json keeps both criteria.
"${build_dir}/bench/bench_skew" \
  alphas=1.1 reads=120 prime=120 check_bound=1 require_goodput=0 \
  out="${build_dir}/BENCH_skew_smoke.json"

echo "=== observability smoke (bench_throughput obs_check)"
# Armed-but-unsampled recorders must not tax the hit-heavy hot path
# (tolerance absorbs shared-box noise; the structural budget is <1%),
# must record zero spans, and the exporters must emit the cross-layer
# series.  The bench exits non-zero on any of the three.  It prices the
# recorders in process CPU per read, with the off and attached passes
# interleaved, so time stolen from the run does not count.  A pass is
# still only ~6k reads, and its CPU per read varies by 10-20% from pass
# to pass, so a single attempt fails now and then (5 of 40 on a 4-vCPU
# VM; 5 of 20 with the older ops/s measure; DESIGN.md §9,
# "Overhead budget").
# The smoke therefore keeps three attempts: a real regression fails all
# of them, noise does not.
obs_ok=0
for attempt in 1 2 3; do
  if "${build_dir}/bench/bench_throughput" \
    obs_check=1 hit_passes=30 obs_reps=3 \
    out="${build_dir}/BENCH_throughput_obscheck.json"; then
    obs_ok=1
    break
  fi
  echo "obs_check attempt ${attempt} over tolerance (shared-box noise?); retrying"
done
[ "${obs_ok}" -eq 1 ]
# The obs_check artifact embeds the registry's raw export_json() output;
# parsing the artifact therefore validates the exporter's JSON syntax.
python3 - "${build_dir}/BENCH_throughput_obscheck.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
metrics = doc["export_sample"]["metrics"]
assert metrics, "exporter emitted no metrics"
names = {m["name"] for m in metrics}
# One series at least from each component the obs_check cluster builds
# (it has no SWIM agent and no PFS guard, so ftc_swim_/ftc_pfs_guard_ are
# not required here).
for family in ("ftc_client_", "ftc_server_", "ftc_store_", "ftc_transport_"):
    assert any(n.startswith(family) for n in names), \
        f"exporter emitted no {family}* series"
print(f"exporter JSON parses: {len(metrics)} series, "
      f"overhead {doc['overhead_pct']}%")
EOF

echo "=== epoch-ahead prefetch smoke (bench_fig5_end_to_end prefetch_only=1, reduced load)"
# Few-second smoke on the threaded cluster: cold vs epoch-ahead
# prefetched vs prefetched+mid-epoch-kill.  The exit code enforces the
# acceptance gates (epochs/hour >= 1.2x cold, steady-state epoch PFS
# reads == 0 with prefetch on, kill recovery via kPeerGet + warm
# standbys with zero PFS reads beyond warm-up).  The epochs/hour ratio
# is a wall-clock measurement, so like the obs smoke it gets three
# attempts: a real regression fails all of them, box noise does not.
pf_ok=0
for attempt in 1 2 3; do
  if "${build_dir}/bench/bench_fig5_end_to_end" \
    prefetch_only=1 pf_files=96 pf_file_kb=16 pf_epochs=3 \
    out="${build_dir}/BENCH_prefetch_smoke.json"; then
    pf_ok=1
    break
  fi
  echo "prefetch smoke attempt ${attempt} failed (shared-box noise?); retrying"
done
[ "${pf_ok}" -eq 1 ]
python3 - "${build_dir}/BENCH_prefetch_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
runs = {r["name"]: r for r in doc["scenarios"]}
warm, kill = runs["prefetched"], runs["prefetched+kill"]
assert all(n == 0 for n in warm["pfs_reads_per_epoch"][1:]), (
    f"prefetched epochs touched the PFS: {warm['pfs_reads_per_epoch']}")
assert kill["total_pfs_reads"] == 96, (
    f"kill recovery read the PFS: {kill['total_pfs_reads']} != 96 warm-up reads")
assert kill["server_peer_gets"] > 0, "kill scenario never exercised kPeerGet"
assert kill["restarts"] >= 1, "kill scenario did not restart"
print(f"prefetch smoke: {warm['epochs_per_hour']:.0f} vs "
      f"{runs['cold']['epochs_per_hour']:.0f} epochs/h cold, "
      f"{kill['server_peer_gets']} kPeerGet serves under kill, 0 extra PFS reads")
EOF

echo "=== partition-tolerance smoke (bench_partition, reduced load)"
# Few-second smoke: 8 nodes, 60/40 asymmetric split healed mid-run.  The
# exit code enforces all four partition gates — majority SLO-goodput >=
# 0.99x healthy, ZERO stale-epoch writes accepted, at most one false
# failure confirmation, post-heal convergence <= 2x a single-kill
# failover.  The artifact is checked too: the zero-stale-writes criterion
# is the split-brain safety property, so it is asserted independently of
# the bench's own gating.
"${build_dir}/bench/bench_partition" \
  nodes=8 files=24 fresh_files=8 file_kb=16 passes=80 timeout_s=20 \
  out="${build_dir}/BENCH_partition_smoke.json"
python3 - "${build_dir}/BENCH_partition_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
fencing = doc["fencing"]
assert fencing["stale_epoch_puts_accepted"] == 0, (
    f"split-brain safety violated: {fencing['stale_epoch_puts_accepted']} "
    "stale-epoch writes accepted")
part = doc["partition"]
print(f"partition smoke: availability {part['availability_ratio']:.4f}, "
      f"{fencing['fenced_writes']} writes fenced / 0 stale accepted, "
      f"{part['false_confirms']} false confirms, "
      f"heal {part['post_heal_ms']:.0f}ms vs "
      f"single-kill {doc['single_kill']['convergence_ms']:.0f}ms")
EOF

echo "=== tiered-store pressure smoke (bench_pressure, reduced load)"
# Few-second smoke over the RAM+NVMe tiered store: warm-then-scan
# hot-set survival (S3-FIFO must beat LRU by the 1.3x gate), write p99
# under watermark reclaim, and the kill + warm-restart phase (manifest
# re-serves everything, stale generation rejected, zero PFS reads).
# The p99 criterion is a wall-clock measurement, so like the obs smoke
# it gets three attempts: a real regression fails all of them.
pr_ok=0
for attempt in 1 2 3; do
  if "${build_dir}/bench/bench_pressure" \
    ram_kb=512 writes=800 wr_files=24 epochs=2 \
    out="${build_dir}/BENCH_pressure_smoke.json"; then
    pr_ok=1
    break
  fi
  echo "pressure smoke attempt ${attempt} failed (shared-box noise?); retrying"
done
[ "${pr_ok}" -eq 1 ]
python3 - "${build_dir}/BENCH_pressure_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
scan, warm = doc["scan"], doc["warm"]
assert scan["s3fifo"]["hot_set_hit_ratio"] > scan["lru"]["hot_set_hit_ratio"], (
    "S3-FIFO did not beat LRU on post-scan hot-set survival")
assert warm["restored"] == warm["held"], (
    f"warm restart dropped entries: {warm['restored']}/{warm['held']}")
assert warm["pfs_reads_on_reserve"] == 0, (
    f"warm restart touched the PFS {warm['pfs_reads_on_reserve']} times")
assert warm["rejected_stale"] == 1, "stale-generation manifest row not rejected"
print(f"pressure smoke: s3fifo keeps {scan['s3fifo']['hot_set_hit_ratio']:.2f} "
      f"of the hot set vs lru {scan['lru']['hot_set_hit_ratio']:.2f}; "
      f"warm restart {warm['restored']}/{warm['held']}, 0 PFS reads")
EOF

echo "=== membership smoke (bench_membership, defaults)"
# The one bench that runs both placement sources side by side on one
# crash-stop kill: client_local (each client's detector publishes the
# removal on its own ring) and membership (every client reads its SWIM
# agent's ring).  ~1.5 s.  The exit code enforces the membership gates:
# convergence within period_bound probe periods, faster than the
# client-local baseline, with fewer data requests at the dead node.  The
# artifact is checked too: in both phases every read succeeds and every
# lost file is recached from the PFS exactly once.
"${build_dir}/bench/bench_membership" \
  out="${build_dir}/BENCH_membership_smoke.json"
python3 - "${build_dir}/BENCH_membership_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for name, phase in doc["phases"].items():
    assert phase["converged"], f"{name}: did not converge"
    assert phase["reads_failed"] == 0, (
        f"{name}: {phase['reads_failed']} reads failed")
    assert phase["recache_pfs_fetches"] == phase["expected_recaches"], (
        f"{name}: {phase['recache_pfs_fetches']} PFS recaches for "
        f"{phase['expected_recaches']} lost files")
    print(f"{name}: {phase['probe_periods']:.1f} probe periods, "
          f"{phase['duplicate_recaches']} dead-node data requests, "
          f"{phase['recache_pfs_fetches']}/{phase['expected_recaches']} "
          f"recaches, {phase['reads_ok']} reads ok")
EOF

echo "=== gray-failure smoke (bench_grayfail, defaults)"
# The one bench that runs hedge legs and reinstatement probes together:
# healthy, slow-unhedged and slow-hedged read phases (10 ms gray stall on
# one of four nodes), then a crash + cache wipe + revive.  ~15 s, one
# attempt (20 of 20 single attempts passed on a 4-vCPU VM when it was
# added, hedged p99 0.14-1.85x healthy).  The exit code enforces the
# hedged p99 <= 3x healthy p99 bound and the probe reinstatement; the
# artifact is checked too: no phase failed a read, the slow phase hedged,
# and the revived node was reinstated, regained its ring arc and
# recached on first touch.
"${build_dir}/bench/bench_grayfail" \
  out="${build_dir}/BENCH_grayfail_smoke.json"
python3 - "${build_dir}/BENCH_grayfail_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for name, phase in doc["phases"].items():
    assert phase["failures"] == 0, f"{name}: {phase['failures']} reads failed"
hedged = doc["phases"]["slow_hedged"]
assert hedged["hedges_launched"] > 0, "the slow phase never hedged"
rein = doc["reinstatement"]
for key in ("reinstated", "ownership_regained", "recached_on_first_touch"):
    assert rein[key], f"reinstatement: {key} is false"
print(f"gray-failure smoke: {hedged['hedges_launched']} hedges, "
      f"{hedged['hedge_wins']} won, hedged p99 "
      f"{doc['hedged_p99_over_healthy_p99']:.2f}x healthy, reinstated in "
      f"{rein['time_to_reinstate_ms']:.1f} ms")
EOF

echo "=== artifact stamps (every threaded smoke artifact)"
# Every artifact the shared harness writes names the commit (or "none"
# outside a git checkout), the build type and the core count it ran on.
python3 - "${build_dir}" <<'EOF'
import json, os, sys
names = ["BENCH_failstorm_smoke.json", "BENCH_failstorm_warm_smoke.json",
         "BENCH_skew_smoke.json", "BENCH_throughput_obscheck.json",
         "BENCH_prefetch_smoke.json", "BENCH_partition_smoke.json",
         "BENCH_pressure_smoke.json", "BENCH_membership_smoke.json",
         "BENCH_grayfail_smoke.json"]
for name in names:
    with open(os.path.join(sys.argv[1], name)) as f:
        doc = json.load(f)
    for field in ("git_sha", "build_type", "nproc"):
        assert field in doc, f"{name} carries no {field}"
    assert doc["git_sha"], f"{name}: empty git_sha"
    assert doc["build_type"], f"{name}: empty build_type"
    assert isinstance(doc["nproc"], int) and doc["nproc"] >= 1, (
        f"{name}: nproc {doc['nproc']!r}")
print(f"{len(names)} artifacts stamped: git_sha {doc['git_sha']}, "
      f"build_type {doc['build_type']}, nproc {doc['nproc']}")
EOF

echo "=== thread sanitizer"
"${source_dir}/scripts/sanitize.sh" thread

echo "=== address sanitizer"
"${source_dir}/scripts/sanitize.sh" address

echo "CI green."
