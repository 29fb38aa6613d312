#!/usr/bin/env bash
# Builds the concurrency-relevant test binaries under a sanitizer and runs
# them.  The lock-striped cache store, thread pools and transport are the
# racy surface; cluster/rpc/store tests cover all three.  cluster_test also
# carries the gray-failure stress suite (GrayFailStress): concurrent
# hedging clients racing async hedge legs and reinstatement probes against
# a flapping node and a slow node — the paths where a data race would hide.
# membership_test exercises the SWIM gossip scheduler and the epoch-swap
# publish path: background probe threads, async ping-req/verdict errands
# and reader-side ring snapshots all interleave there.
# The overload-control layer is covered too: storage_test stresses the
# singleflight leader/joiner handoff (50 open/close rounds under
# contention), rpc_test the multi-worker endpoints + admission shedding,
# and cluster_test the PFS fetch guard (breaker, slots), bounded-PFS
# contention, and the client retry-budget/hedge interplay — TSan sees
# every leader election, flight publish, and token-bucket path.
# obs_test covers the observability layer: the FlightRecorder's per-slot
# seqlock under 8 concurrent writers racing a dumping reader, the
# lock-striped MetricsRegistry under concurrent registration + export,
# and end-to-end traced reads (hedge legs and async completions record
# spans from pool threads while the client thread records the root).
# Skew-tolerant placement rides along in cluster_test and rpc_test: the
# transport's load-EWMA/in-flight accounting under multi-worker endpoints,
# and BoundedLoadSpill's four concurrent clients hammering one hotspot
# while hints, spills, and async kPut/kEvict fanout completions interleave
# with the promoter/estimator on each client's own thread.
# Warm failover (cluster_test, WarmFailover suite) adds the write-behind
# standby path: async generation-stamped kPuts whose completions touch
# the refcounted mailbox and the shared in-flight counter from pool
# threads, racing reads, kills, rejoins, and the server's generation
# ledger — the replication surface a torn stamp would corrupt.
# Epoch-ahead prefetch (cluster_test, EpochPrefetch suite) is the newest
# racy surface: bounded-depth async kPeerGet pulls whose completions CRC
# the payload on pool threads, post the bytes through the refcounted
# mailbox, and decrement the shared in-flight counter (post-then-decrement
# ordering is what drain_prefetch's exit sweep relies on), interleaved
# with kill-driven ring surgery, p2p chain hops, and the trainer's staged
# consume on the owning thread.
# Partition tolerance rides along in membership_test, rpc_test and
# cluster_test: the transport's per-link block/duplicate/reorder faults
# mutate endpoint state under the same mutex the multi-worker dispatch
# path holds; the SWIM quorum-evidence map and verdict dedup set are
# touched from probe rounds, async verdict completions and gossiped
# claims; and the fencing path (epoch check + kStaleView fast-forward
# with full-dump fallback) runs on server worker threads racing the
# membership agent's epoch swaps — the split-brain surface where a torn
# epoch read would admit a stale write.
# The cache store (store_test, TieredStoreStress suite) is hammered from 8
# threads in both shapes.  Tiered: the background reclaimer demotes under
# watermark pressure while shard locks, the cold-index mutex and the NVMe
# device index interleave with promotions (cold hit -> RAM) and the
# demote-before-cold-write window — the tier-transition surface where a
# torn byte-accounting update or a double-free of a demoted buffer would
# surface.  RAM-only (every server's default cache): inline eviction and
# cross-shard peer steals release and re-take shard locks mid-put, and
# the RamOnlyStore suite checks the byte accounting stays exact under
# concurrent puts, erases and steals.
# Every transport call parks on private futexes (rpc_test): the caller on
# its call's state word, endpoint workers on a per-endpoint sequence word.
# The reply is published by a release exchange the caller reads with
# acquire, so TSan checks that the in-place response is never read before
# it is written; ParkedWorkersNeverMissAWakeup drives 20k calls through
# one- and three-worker endpoints, where a lost wake-up shows as a timeout;
# the shutdown tests cancel queued calls while their callers are parked;
# and LateReplyAfterTimeoutIsNotSeenByTheNextCall has a reply land after its
# caller left, which ASan checks for use-after-free.  Those tests send from
# another node, so they stay on the queued path.
# Node-local calls (rpc_test TransportLocal suite) run the handler on the
# caller's thread: TSan sees those handlers race worker-run handlers and
# task-only items (a caller-thread serve's after_reply work, queued for a
# worker) through the endpoint's slot count; the unregister tests race the
# shutdown sweep against a worker for a queued task-only item and wait out
# a handler still running on its caller's thread, which ASan checks for
# use-after-free.
# The after-reply path (rpc_test, cluster_test WriteBehind and Concurrency
# suites): a handler queues work with Transport::after_reply, the endpoint
# worker completes the caller's call and then runs it, so a write-behind
# recache touches the store and the server's pending-recache count while
# the caller already races ahead with the reply — and flush_data_mover
# waits on that count from a test thread across four workers.  A missed
# wake-up or an unpublished store write would surface here.
# WriteBehind.LocalMissFillLandsBeforeARemoteReread adds the node-local
# miss: the fill a reader's thread hands to its own node's worker races
# the remote re-read queued behind it.
# store_test also runs Manifest.FuzzedMutationsNeverCrash, so ASan checks
# the manifest parser against seeded flips, truncations and insertions.
# hash_test is not concurrent; it rides along for ASan/UBSan, which check
# the CRC-32 kernels' unaligned 16-byte loads and 0-15-byte tail handling
# on every length and start offset the property tests sweep.
# ring_test is not concurrent either; it rides along for ASan/UBSan over
# the hash ring's sorted position table: the wrap-around index walks
# (owner chains, excluding and bounded-load lookups past the last
# position), the merge on add and the erase on remove, which the
# RingDifferential random histories drive at 1-100 vnodes per node.
# Usage: scripts/sanitize.sh [thread|address] [build_dir]
set -euo pipefail

sanitizer="${1:-thread}"
build_dir="${2:-build-${sanitizer}san}"
source_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

case "${sanitizer}" in
  thread|address) ;;
  *) echo "usage: $0 [thread|address] [build_dir]" >&2; exit 2 ;;
esac

# Bench needs google-benchmark and adds nothing to race coverage; skip it
# to keep the sanitizer build fast.
cmake -B "${build_dir}" -S "${source_dir}" \
  -DFTC_SANITIZE="${sanitizer}" \
  -DFTC_BUILD_BENCH=OFF \
  -DFTC_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "${build_dir}" -j \
  --target cluster_test rpc_test storage_test store_test membership_test obs_test \
  hash_test ring_test

# halt_on_error makes a single report fail the run loudly.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"

status=0
for test_bin in cluster_test rpc_test storage_test store_test membership_test obs_test \
  hash_test ring_test; do
  echo "=== ${sanitizer}-sanitizer: ${test_bin}"
  if ! "${build_dir}/tests/${test_bin}"; then
    status=1
  fi
done
exit "${status}"
