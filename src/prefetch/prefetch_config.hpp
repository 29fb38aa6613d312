// prefetch_config.hpp - Knobs for the shuffle-aware epoch-ahead prefetcher.
//
// One nested block shared by every substrate that can prefetch: the
// threaded cluster client (HvacClientConfig::prefetch) and the DES
// (destim::ExperimentConfig::prefetch) read the same struct, so the two
// prefetch implementations cannot drift apart in their knob vocabulary.
// Everything defaults off; a default-constructed config is bit-for-bit
// the legacy no-prefetch behaviour.
#pragma once

#include <cstdint>

#include "common/status.hpp"

namespace ftc::prefetch {

/// Prefetch knobs (all default-off; legacy behaviour unchanged).
struct PrefetchConfig {
  /// Master switch for the epoch-boundary planner: at each epoch start the
  /// client diffs its upcoming sample set against ring placement and pulls
  /// remote-owned files ahead of use.  Requires hash-ring placement (the
  /// owning config enforces the mode gate).
  bool enabled = false;
  /// Max in-flight background pulls per client and epoch.  Bounds both
  /// the memory staged ahead of the trainer and the load prefetch may put
  /// on peers; pulls left over from a superseded epoch do not count.
  /// Valid with enabled: 1..256.
  std::uint32_t depth = 8;
  /// Peer-to-peer recache: when a read would otherwise fall back to the
  /// PFS, walk the replica chain with kPeerGet first so a warm peer (ring
  /// owner or generation-stamped standby) supplies the bytes node-to-node.
  /// Requires enabled.
  bool p2p = false;

  /// Rejects contradictory knob combinations.  Mode gating (prefetch needs
  /// the hash ring) lives with the owning config, which knows the
  /// placement mode.
  [[nodiscard]] Status validate() const;
};

}  // namespace ftc::prefetch
