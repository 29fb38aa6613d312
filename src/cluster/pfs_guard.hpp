// pfs_guard.hpp - Storm protection for the server's PFS miss path.
//
// When a node dies, its files all hash to the same ring successor and
// every client's first touch there is a miss.  Unprotected, the successor
// issues one PFS fetch per *request*; the PFS — the shared resource the
// whole cache exists to shield — absorbs a read burst proportional to
// client count, not to lost-file count.  This guard stacks three defenses
// in front of the PFS, outermost first:
//
//   1. Singleflight: concurrent fetches for one path collapse into a
//      single PFS read whose refcounted result every waiter shares
//      (duplicate fetches per lost file -> 1).
//   2. Slot limiter: at most `max_concurrent_fetches` distinct-path
//      fetches run at once; a fetch that cannot get a slot within
//      `fetch_slot_wait` is rejected kBusy instead of piling onto a
//      struggling PFS.
//   3. Circuit breaker (closed/open/half-open): sustained PFS errors or
//      slow reads trip the breaker, which fast-rejects kBusy for a
//      cooldown, then admits a single half-open trial whose outcome
//      closes or re-opens it.  kNotFound never trips it — a missing file
//      is an answer, not a health signal.
//
// kBusy rejections carry a retry-after hint; clients fold it into their
// jittered backoff.  The guard is self-contained and lock-internal so
// HvacServer composes it without a server-wide mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/buffer.hpp"
#include "common/stats_macros.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "storage/singleflight.hpp"

namespace ftc::cluster {

struct PfsGuardOptions {
  /// Distinct-path PFS fetches allowed to run concurrently.
  std::size_t max_concurrent_fetches = 4;
  /// How long a fetch waits for a slot before giving up kBusy.
  std::chrono::milliseconds fetch_slot_wait{20};
  /// Consecutive fetch failures that trip the breaker open.
  std::uint32_t breaker_failure_threshold = 8;
  /// How long an open breaker fast-rejects before the half-open trial.
  std::chrono::milliseconds breaker_cooldown{250};
  /// A successful fetch slower than this counts as a breaker failure
  /// (gray-failing PFS).  0 disables latency-based tripping.
  std::chrono::milliseconds breaker_latency_threshold{0};
};

/// PfsFetchGuard's counters, the one definition of each: X(field, metric
/// [, label key, label value]) (common/stats_macros.hpp).  Expands to
/// PfsFetchGuard::Stats, its atomic twin, stats_snapshot() and the
/// guard's block of Cluster::collect_metrics.
#define FTC_PFS_GUARD_STATS(X)                                               \
  X(fetches, "ftc_pfs_guard_fetches_total")     /* leader executions */      \
  X(coalesced, "ftc_pfs_guard_coalesced_total") /* shared a flight */        \
  /* kBusy: no slot in time / breaker open */                                \
  X(slot_rejections, "ftc_pfs_guard_rejections_total", "outcome", "slots")   \
  X(breaker_rejections, "ftc_pfs_guard_rejections_total", "outcome",         \
    "breaker")                                                               \
  /* closed/half-open -> open */                                             \
  X(breaker_trips, "ftc_pfs_guard_breaker_trips_total")

class PfsFetchGuard {
 public:
  using FetchFn = std::function<StatusOr<common::Buffer>()>;

  explicit PfsFetchGuard(PfsGuardOptions options);

  PfsFetchGuard(const PfsFetchGuard&) = delete;
  PfsFetchGuard& operator=(const PfsFetchGuard&) = delete;

  /// What a guarded fetch produced.  `result` is shared verbatim between
  /// the leader and every coalesced waiter (refcounted payload).
  struct Outcome {
    StatusOr<common::Buffer> result;
    /// True when this call joined another caller's in-flight fetch.
    bool coalesced = false;
    /// True when the guard refused to fetch (open breaker / no slot);
    /// `result` then holds kBusy and `retry_after_ms` the suggested wait.
    bool rejected_busy = false;
    std::uint32_t retry_after_ms = 0;
  };

  /// Attaches the node's flight recorder (not owned; must outlive the
  /// guard).  `node` labels the spans; nullptr detaches.
  void set_observability(obs::FlightRecorder* recorder, NodeId node) {
    recorder_ = recorder;
    node_ = node;
  }

  /// Runs `fn` for `key` under all three defenses.  Thread-safe; `fn`
  /// executes on exactly one of the concurrent callers per key.  A
  /// sampled `trace` yields a leader span around the PFS read (or a
  /// joiner span for the coalesced wait) plus rejection events; the
  /// default all-zero context records nothing.
  Outcome fetch(const std::string& key, const FetchFn& fn,
                const obs::TraceContext& trace = {});

  /// True while the breaker is fast-rejecting (telemetry/tests).
  [[nodiscard]] bool breaker_open() const;

  struct Stats {
    FTC_PFS_GUARD_STATS(FTC_STATS_FIELD)
  };
  [[nodiscard]] Stats stats_snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// The leader-side path: breaker admit -> slot -> fn -> breaker record.
  /// `trace` is the *leader caller's* context; joiners who share this
  /// flight record their own wait span in fetch().
  Outcome fetch_as_leader(const std::string& key, const FetchFn& fn,
                          const obs::TraceContext& trace);

  /// Breaker admission.  Returns true to proceed (and flags the half-open
  /// trial); false fills `retry_after_ms` with the remaining cooldown.
  bool breaker_admit(std::uint32_t& retry_after_ms);
  /// Folds a finished fetch into the breaker state machine.
  void breaker_record(bool failure);
  /// Un-claims a half-open trial that never ran (slot rejection).
  void breaker_abort_trial();

  PfsGuardOptions options_;

  obs::FlightRecorder* recorder_ = nullptr;
  NodeId node_ = kInvalidNode;

  storage::Singleflight<Outcome> flights_;

  mutable std::mutex breaker_mutex_;
  BreakerState breaker_state_ = BreakerState::kClosed;
  std::uint32_t consecutive_failures_ = 0;
  Clock::time_point open_until_{};

  mutable std::mutex slot_mutex_;
  std::condition_variable slot_cv_;
  std::size_t slots_in_use_ = 0;

  struct AtomicStats {
    FTC_PFS_GUARD_STATS(FTC_STATS_ATOMIC)
  };
  AtomicStats stats_;
};

}  // namespace ftc::cluster
