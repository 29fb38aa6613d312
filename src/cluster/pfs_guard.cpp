#include "cluster/pfs_guard.hpp"

#include <algorithm>
#include <cstring>

namespace ftc::cluster {

namespace {

std::uint32_t ceil_ms(std::chrono::nanoseconds d) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(d);
  const std::int64_t count =
      ms.count() + (std::chrono::nanoseconds(ms) < d ? 1 : 0);
  return static_cast<std::uint32_t>(std::max<std::int64_t>(count, 1));
}

PfsFetchGuard::Outcome busy_outcome(std::string why,
                                    std::uint32_t retry_after_ms) {
  PfsFetchGuard::Outcome out{Status::busy(std::move(why))};
  out.rejected_busy = true;
  out.retry_after_ms = retry_after_ms;
  return out;
}

}  // namespace

PfsFetchGuard::PfsFetchGuard(PfsGuardOptions options)
    : options_(options) {}

PfsFetchGuard::Outcome PfsFetchGuard::fetch(const std::string& key,
                                            const FetchFn& fn,
                                            const obs::TraceContext& trace) {
  const bool traced = recorder_ != nullptr && trace.sampled;
  const std::int64_t wait_start = traced ? obs::now_ns() : 0;
  auto flight = flights_.run(
      key, [this, &key, &fn, &trace] { return fetch_as_leader(key, fn, trace); });
  Outcome out = std::move(flight.value);
  if (!flight.leader) {
    out.coalesced = true;
    stats_.coalesced.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      // The joiner's span covers its coalesced wait on the leader's
      // flight; the leader span (if the leader was sampled) carries the
      // actual PFS read.
      recorder_->record_span(
          obs::RecordKind::kPfsFetchJoiner, trace.child(), node_, wait_start,
          obs::now_ns(),
          static_cast<std::uint32_t>(out.result.is_ok()
                                         ? StatusCode::kOk
                                         : out.result.status().code()),
          0, key);
    }
  }
  return out;
}

PfsFetchGuard::Outcome PfsFetchGuard::fetch_as_leader(
    const std::string& key, const FetchFn& fn,
    const obs::TraceContext& trace) {
  const bool traced = recorder_ != nullptr && trace.sampled;
  std::uint32_t retry_after_ms = 0;
  if (!breaker_admit(retry_after_ms)) {
    stats_.breaker_rejections.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      recorder_->record_event(obs::RecordKind::kPfsRejected, trace.child(),
                              node_,
                              static_cast<std::uint32_t>(StatusCode::kBusy),
                              retry_after_ms, "breaker");
    }
    return busy_outcome("pfs breaker open", retry_after_ms);
  }
  {
    std::unique_lock lock(slot_mutex_);
    const bool got_slot = slot_cv_.wait_for(lock, options_.fetch_slot_wait, [this] {
      return slots_in_use_ < options_.max_concurrent_fetches;
    });
    if (!got_slot) {
      stats_.slot_rejections.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      // A half-open trial that never reached the PFS proves nothing —
      // hand the trial back so the next arrival attempts it.
      breaker_abort_trial();
      if (traced) {
        recorder_->record_event(obs::RecordKind::kPfsRejected, trace.child(),
                                node_,
                                static_cast<std::uint32_t>(StatusCode::kBusy),
                                ceil_ms(options_.fetch_slot_wait), "slots");
      }
      return busy_outcome("pfs fetch slots exhausted",
                          ceil_ms(options_.fetch_slot_wait));
    }
    ++slots_in_use_;
  }
  stats_.fetches.fetch_add(1, std::memory_order_relaxed);
  const obs::TraceContext leader_ctx = traced ? trace.child() : obs::TraceContext{};
  const std::int64_t leader_start = traced ? obs::now_ns() : 0;
  const Clock::time_point started = Clock::now();
  StatusOr<common::Buffer> result = fn();
  const Clock::duration elapsed = Clock::now() - started;
  if (traced) {
    recorder_->record_span(
        obs::RecordKind::kPfsFetchLeader, leader_ctx, node_, leader_start,
        obs::now_ns(),
        static_cast<std::uint32_t>(result.is_ok() ? StatusCode::kOk
                                                  : result.status().code()),
        result.is_ok() ? result.value().size() : 0, key);
  }
  {
    std::lock_guard lock(slot_mutex_);
    --slots_in_use_;
  }
  slot_cv_.notify_one();
  // kNotFound is an authoritative answer, not a PFS health problem; a slow
  // success is a health problem when a latency threshold is configured.
  const bool error_failure =
      !result.is_ok() && result.status().code() != StatusCode::kNotFound;
  const bool latency_failure =
      options_.breaker_latency_threshold.count() > 0 &&
      elapsed > options_.breaker_latency_threshold;
  breaker_record(error_failure || latency_failure);
  return Outcome{std::move(result)};
}

bool PfsFetchGuard::breaker_admit(std::uint32_t& retry_after_ms) {
  std::lock_guard lock(breaker_mutex_);
  switch (breaker_state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen: {
      const Clock::time_point now = Clock::now();
      if (now >= open_until_) {
        // Cooldown over: this caller becomes the single half-open trial.
        breaker_state_ = BreakerState::kHalfOpen;
        return true;
      }
      retry_after_ms = ceil_ms(open_until_ - now);
      return false;
    }
    case BreakerState::kHalfOpen:
      // A trial is already probing the PFS; everyone else keeps waiting.
      retry_after_ms = ceil_ms(options_.breaker_cooldown);
      return false;
  }
  return true;
}

void PfsFetchGuard::breaker_record(bool failure) {
  std::lock_guard lock(breaker_mutex_);
  if (breaker_state_ == BreakerState::kHalfOpen) {
    if (failure) {
      breaker_state_ = BreakerState::kOpen;
      open_until_ = Clock::now() + options_.breaker_cooldown;
      stats_.breaker_trips.fetch_add(1, std::memory_order_relaxed);
    } else {
      breaker_state_ = BreakerState::kClosed;
      consecutive_failures_ = 0;
    }
    return;
  }
  if (!failure) {
    consecutive_failures_ = 0;
    return;
  }
  if (++consecutive_failures_ >= options_.breaker_failure_threshold &&
      breaker_state_ == BreakerState::kClosed) {
    breaker_state_ = BreakerState::kOpen;
    open_until_ = Clock::now() + options_.breaker_cooldown;
    stats_.breaker_trips.fetch_add(1, std::memory_order_relaxed);
  }
}

void PfsFetchGuard::breaker_abort_trial() {
  std::lock_guard lock(breaker_mutex_);
  if (breaker_state_ == BreakerState::kHalfOpen) {
    // open_until_ already lies in the past, so the next admit re-enters
    // half-open immediately rather than serving a second cooldown.
    breaker_state_ = BreakerState::kOpen;
  }
}

bool PfsFetchGuard::breaker_open() const {
  std::lock_guard lock(breaker_mutex_);
  return breaker_state_ != BreakerState::kClosed;
}

PfsFetchGuard::Stats PfsFetchGuard::stats_snapshot() const {
  // Field-by-field loads of independently updated counters can observe a
  // torn snapshot (e.g. a coalesced count that exceeds fetches).  Bounded
  // double-read: retry while two back-to-back reads disagree, settling
  // for the last read if the counters keep moving.
  const auto load_all = [this] {
    Stats s;
    FTC_PFS_GUARD_STATS(FTC_STATS_LOAD)
    return s;
  };
  Stats snap = load_all();
  for (int round = 0; round < 3; ++round) {
    const Stats again = load_all();
    if (std::memcmp(&snap, &again, sizeof(Stats)) == 0) break;
    snap = again;
  }
  return snap;
}

}  // namespace ftc::cluster
