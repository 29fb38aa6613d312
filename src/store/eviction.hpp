// eviction.hpp - Pluggable victim-selection policies for the cache store.
//
// The store owns plain path->bytes entries and delegates ALL ordering
// decisions to an EvictionPolicy object: the policy sees inserts, hits
// and erases, and hands back victims on demand.  That makes the policy a
// per-workload choice (Chameleon's argument) instead of a compile-time
// one, and lets the RAM and NVMe tiers run the same policy code
// independently.
//
// Policies:
//   LRU     - classic recency list; the baseline every DL-cache paper
//             beats, because an epoch-long sequential sweep is its worst
//             case (every one-touch scan entry displaces a reused one).
//   FIFO    - insertion order; reads never refresh.  Cheaper than LRU and
//             often no worse under full-dataset sweeps.
//   S3-FIFO - three static FIFO queues (small / main / ghost).  New keys
//             enter the small probationary queue; only keys re-referenced
//             while in small (or remembered by the ghost queue of recent
//             small-queue casualties) graduate to main.  One-touch scan
//             traffic dies in small without ever displacing main — the
//             scan-resistance property the pressure bench gates on.
//   GDSF    - Greedy-Dual-Size-Frequency: priority = L + freq/size with
//             an inflation term L that ages out stale frequency.  Favors
//             small, frequently-reused files; scan traffic enters at
//             minimal priority and is evicted first.
//
// Thread safety: externally synchronized — each tier shard wraps its
// policy in the shard lock, exactly like the entry map it orders.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.hpp"

namespace ftc::store {

enum class PolicyKind {
  kLru,
  kFifo,
  kS3Fifo,
  kGdsf,
};

const char* policy_kind_name(PolicyKind kind);

/// Parses "lru" | "fifo" | "s3fifo" | "gdsf" (case-sensitive, the knob
/// spelling); kInvalidArgument otherwise.
StatusOr<PolicyKind> parse_policy_kind(const std::string& name);

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  [[nodiscard]] virtual PolicyKind kind() const = 0;

  /// A new entry of `bytes` was inserted under `key`.  The key is
  /// guaranteed absent from the policy's bookkeeping (the store erases
  /// before re-inserting on overwrite).
  virtual void on_insert(const std::string& key, std::uint64_t bytes) = 0;

  /// `key` was read.  Unknown keys are ignored (a hit can race an
  /// eviction in the store's unlocked windows).
  virtual void on_hit(const std::string& key) = 0;

  /// `key` was removed by the store (explicit erase / overwrite / tier
  /// move).  Unknown keys are ignored.
  virtual void on_erase(const std::string& key) = 0;

  /// Selects the next victim and REMOVES it from the policy's
  /// bookkeeping; the caller must drop the corresponding entry.  nullopt
  /// when no entries remain.
  virtual std::optional<std::string> pop_victim() = 0;

  /// Number of keys currently tracked.
  [[nodiscard]] virtual std::size_t tracked() const = 0;

  virtual void reset() = 0;
};

std::unique_ptr<EvictionPolicy> make_eviction_policy(PolicyKind kind);

}  // namespace ftc::store
