// flight_recorder.hpp - Per-node lock-free ring buffer of recent spans
// and membership/ring events.
//
// The postmortem instrument: every node keeps the last `capacity` spans
// (client attempts, hedge legs, server phases, PFS singleflight roles)
// and ring/membership events in a bounded ring, and benches/tests dump it
// on demand to reconstruct a storm timeline — first suspicion, ring epoch
// bump, first coalesced PFS fetch, p99 recovery — without any logging on
// the hot path.
//
// Concurrency design (TSan-clean, lock-free writers):
//   - Writers claim a position with one relaxed fetch_add on `head_`,
//     take the slot's sequence word from even to odd with a CAS, write
//     the record as fixed-width atomic words (relaxed) and publish by
//     storing the sequence word with release order.  No locks, no
//     allocation — a writer can never block another writer or a reader.
//     When writers lap the ring and the slot is mid-write or already
//     holds a newer record, the CAS is skipped and the record dropped,
//     so a slot never has two writers.
//   - The sequence word is odd while a write is in progress and
//     `2*(position+1)` once published (monotonic per slot, like a
//     per-slot seqlock).  Readers load it with acquire, copy the payload
//     words, and re-check the sequence: a concurrent overwrite changes
//     the sequence, so torn records are detected and skipped rather than
//     returned.
//   - Overwrites are by design: the ring holds the *most recent*
//     `capacity` records; wraparound silently discards the oldest.
//
// Records are fixed-size (a short `detail` tag, no strings on the write
// path), so recording costs a slot claim plus ~14 relaxed stores.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/trace_context.hpp"

namespace ftc::obs {

/// What a record describes.  Span kinds carry [start_ns, end_ns]; event
/// kinds are instantaneous (end_ns == start_ns).
enum class RecordKind : std::uint8_t {
  // Client-side spans.
  kClientRead = 0,     ///< Root span: one read_file call end to end.
  kClientAttempt = 1,  ///< One primary RPC attempt within a read.
  kHedgeLeg = 2,       ///< Speculative second request raced by hedging.
  kBusyRetry = 3,      ///< Server-directed retry after a kBusy rejection.
  kPfsDirect = 4,      ///< Client read the PFS itself (fallback path).
  // Server-side spans.
  kServerQueue = 5,    ///< Admission -> worker pickup (ingress queue wait).
  kServerHandle = 6,   ///< Worker execute phase (dispatch through reply).
  kServerShed = 7,     ///< Event: request shed (admission kBusy or
                       ///< expired-deadline on arrival).
  // PFS singleflight roles.
  kPfsFetchLeader = 8,  ///< This caller executed the PFS fetch.
  kPfsFetchJoiner = 9,  ///< This caller coalesced onto a leader's flight.
  kPfsRejected = 10,    ///< Event: guard refused (breaker open / no slot).
  // Membership / ring events.
  kSuspicion = 11,   ///< Event: local detector flagged a node.
  kRingUpdate = 12,  ///< Event: placement changed (remove/add/reinstate).
  // Skew-tolerant placement events.
  kLoadSpill = 13,     ///< Event: bounded-load lookup routed past the
                       ///< primary (value = spill target node).
  kHotPromotion = 14,  ///< Event: file promoted to a hot replica set.
  kHotDemotion = 15,   ///< Event: promotion dropped (heat decay or ring
                       ///< epoch bump; code distinguishes which).
  // Warm-failover events.
  kWarmPush = 16,  ///< Event: standby replica push issued (code kOk =
                   ///< first placement, kUnavailable = generation repair
                   ///< after a ring-epoch change; value = generation).
  // Epoch-ahead prefetch / p2p recache events.
  kPrefetchPlan = 17,  ///< Event: epoch-boundary plan computed (value =
                       ///< pulls planned; code kOk = fresh plan,
                       ///< kCancelled = previous epoch's pulls deferred).
  kPeerRecache = 18,   ///< Event: a read was rescued node-to-node over
                       ///< kPeerGet instead of falling back to the PFS
                       ///< (value = serving peer node).
  // Partition-tolerance events.
  kPartitionStart = 19,      ///< Event: injector severed a set of links
                             ///< (value = blocked link count, code = 1 for
                             ///< a one-way split).
  kPartitionHeal = 20,       ///< Event: injector restored connectivity.
  kPartitionFence = 21,      ///< Event: server rejected a stale-epoch write
                             ///< (value = the write's ring epoch, code =
                             ///< the server's current epoch, truncated).
  kPartitionReconcile = 22,  ///< Event: post-heal re-target re-pushed a
                             ///< replica chain touched by the partition
                             ///< (value = the file's new generation).
};

const char* record_kind_name(RecordKind kind);

/// True for kinds with a meaningful duration (spans), false for point
/// events.
constexpr bool record_is_span(RecordKind kind) {
  return kind != RecordKind::kServerShed && kind != RecordKind::kPfsRejected &&
         kind != RecordKind::kSuspicion && kind != RecordKind::kRingUpdate &&
         kind != RecordKind::kLoadSpill && kind != RecordKind::kHotPromotion &&
         kind != RecordKind::kHotDemotion && kind != RecordKind::kWarmPush &&
         kind != RecordKind::kPrefetchPlan && kind != RecordKind::kPeerRecache &&
         kind != RecordKind::kPartitionStart &&
         kind != RecordKind::kPartitionHeal &&
         kind != RecordKind::kPartitionFence &&
         kind != RecordKind::kPartitionReconcile;
}

/// One decoded flight-recorder entry.
struct Record {
  /// Global write sequence (0-based claim order).  Strictly increasing
  /// across a dump; the `epoch` of dump_since.
  std::uint64_t seq = 0;
  RecordKind kind = RecordKind::kClientRead;
  /// Node the record is *about* (span subject / event subject), not
  /// necessarily the node whose recorder holds it.
  ftc::NodeId node = ftc::kInvalidNode;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// StatusCode for spans; RingEventType for kRingUpdate.
  std::uint32_t code = 0;
  /// Kind-specific payload: ring epoch, attempt index, retry-after hint.
  std::uint64_t value = 0;

  /// Short cause/verdict tag ("primary", "hedge_win", "breaker", ...).
  /// Truncated to kDetailBytes on write; never allocates on the hot path.
  static constexpr std::size_t kDetailBytes = 40;
  std::array<char, kDetailBytes> detail{};

  void set_detail(std::string_view tag) {
    const std::size_t n = tag.size() < kDetailBytes ? tag.size() : kDetailBytes;
    std::memcpy(detail.data(), tag.data(), n);
    if (n < kDetailBytes) detail[n] = '\0';
  }
  [[nodiscard]] std::string_view detail_view() const {
    const auto* end =
        static_cast<const char*>(std::memchr(detail.data(), '\0', kDetailBytes));
    return {detail.data(),
            end != nullptr ? static_cast<std::size_t>(end - detail.data())
                           : kDetailBytes};
  }
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8) so slot
  /// selection is a mask, not a division.
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Lock-free append; safe from any number of concurrent threads.  The
  /// record's `seq` field is assigned by the recorder (claim order).  A
  /// record whose slot is mid-write by a writer that lapped the ring, or
  /// already holds a newer record, is dropped.
  void record(const Record& r);

  /// Convenience: record a span derived from a trace context.
  void record_span(RecordKind kind, const TraceContext& ctx, ftc::NodeId node,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::uint32_t code, std::uint64_t value,
                   std::string_view detail);

  /// Convenience: record an instantaneous event (no trace linkage
  /// required; pass a default TraceContext for untraced events).
  void record_event(RecordKind kind, const TraceContext& ctx, ftc::NodeId node,
                    std::uint32_t code, std::uint64_t value,
                    std::string_view detail);

  /// Every currently readable record, oldest first (ascending seq).
  /// Records mid-write or overwritten during the scan are skipped, never
  /// returned torn.
  [[nodiscard]] std::vector<Record> dump() const;

  /// Records with seq >= `epoch`, oldest first.  Pass a previous dump's
  /// max seq + 1 to page through a live recorder.
  [[nodiscard]] std::vector<Record> dump_since(std::uint64_t epoch) const;

  /// Total records ever claimed (>= capacity() means wraparound occurred).
  [[nodiscard]] std::uint64_t records_written() const {
    return head_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  // Payload packing: word 0 = kind | node<<8 (node is 32-bit, kept in
  // bits 8..39) ; 1 = trace ; 2 = span ; 3 = parent ; 4 = start ; 5 = end ;
  // 6 = code ; 7 = value ; 8..12 = detail bytes.
  static constexpr std::size_t kDetailWords = Record::kDetailBytes / 8;
  static constexpr std::size_t kPayloadWords = 8 + kDetailWords;

  struct Slot {
    /// 0 = never written; odd = write in progress; 2*(pos+1) = published.
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kPayloadWords> words{};
  };

  std::atomic<std::uint64_t> head_{0};
  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
};

}  // namespace ftc::obs
