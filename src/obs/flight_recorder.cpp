#include "obs/flight_recorder.hpp"

#include <algorithm>

namespace ftc::obs {

const char* record_kind_name(RecordKind kind) {
  switch (kind) {
    case RecordKind::kClientRead: return "client_read";
    case RecordKind::kClientAttempt: return "client_attempt";
    case RecordKind::kHedgeLeg: return "hedge_leg";
    case RecordKind::kBusyRetry: return "busy_retry";
    case RecordKind::kPfsDirect: return "pfs_direct";
    case RecordKind::kServerQueue: return "server_queue";
    case RecordKind::kServerHandle: return "server_handle";
    case RecordKind::kServerShed: return "server_shed";
    case RecordKind::kPfsFetchLeader: return "pfs_fetch_leader";
    case RecordKind::kPfsFetchJoiner: return "pfs_fetch_joiner";
    case RecordKind::kPfsRejected: return "pfs_rejected";
    case RecordKind::kSuspicion: return "suspicion";
    case RecordKind::kRingUpdate: return "ring_update";
    case RecordKind::kLoadSpill: return "load_spill";
    case RecordKind::kHotPromotion: return "hot_promotion";
    case RecordKind::kHotDemotion: return "hot_demotion";
    case RecordKind::kWarmPush: return "warm_push";
    case RecordKind::kPrefetchPlan: return "prefetch_plan";
    case RecordKind::kPeerRecache: return "peer_recache";
    case RecordKind::kPartitionStart: return "partition_start";
    case RecordKind::kPartitionHeal: return "partition_heal";
    case RecordKind::kPartitionFence: return "partition_fence";
    case RecordKind::kPartitionReconcile: return "partition_reconcile";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

void FlightRecorder::record(const Record& r) {
  const std::uint64_t pos = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[pos & mask_];

  // Mark the slot dirty (odd) so a concurrent reader rejects it, write
  // the payload words relaxed, then publish with a release store the
  // reader's acquire load pairs with.  The release fence keeps the dirty
  // marker visible before any payload word: a reader that saw a fresh
  // word and then fences (acquire) must also see the marker, so its seq
  // re-check rejects the torn copy (Boehm's seqlock construction).
  //
  // The marker is claimed by CAS so one writer owns a slot at a time.
  // When writers lap the ring, two claims can map to one slot at once;
  // with plain stores both would write the words and the later publish
  // would expose a mix of the two records.  A record whose slot is mid-
  // write or already holds a newer record is dropped instead, so the
  // writer never waits; that takes writers lapping the whole ring within
  // one write.
  std::uint64_t cur = slot.seq.load(std::memory_order_relaxed);
  do {
    if ((cur & 1) != 0 || cur > 2 * pos) return;
  } while (!slot.seq.compare_exchange_weak(cur, 2 * pos + 1,
                                           std::memory_order_relaxed));
  std::atomic_thread_fence(std::memory_order_release);

  std::array<std::uint64_t, kPayloadWords> words{};
  words[0] = static_cast<std::uint64_t>(r.kind) |
             (static_cast<std::uint64_t>(r.node) << 8);
  words[1] = r.trace_id;
  words[2] = r.span_id;
  words[3] = r.parent_span_id;
  words[4] = static_cast<std::uint64_t>(r.start_ns);
  words[5] = static_cast<std::uint64_t>(r.end_ns);
  words[6] = r.code;
  words[7] = r.value;
  std::memcpy(&words[8], r.detail.data(), Record::kDetailBytes);
  for (std::size_t i = 0; i < kPayloadWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }

  slot.seq.store(2 * (pos + 1), std::memory_order_release);
}

void FlightRecorder::record_span(RecordKind kind, const TraceContext& ctx,
                                 ftc::NodeId node, std::int64_t start_ns,
                                 std::int64_t end_ns, std::uint32_t code,
                                 std::uint64_t value, std::string_view detail) {
  Record r;
  r.kind = kind;
  r.node = node;
  r.trace_id = ctx.trace_id;
  r.span_id = ctx.span_id;
  r.parent_span_id = ctx.parent_span_id;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.code = code;
  r.value = value;
  r.set_detail(detail);
  record(r);
}

void FlightRecorder::record_event(RecordKind kind, const TraceContext& ctx,
                                  ftc::NodeId node, std::uint32_t code,
                                  std::uint64_t value,
                                  std::string_view detail) {
  const std::int64_t now = now_ns();
  record_span(kind, ctx, node, now, now, code, value, detail);
}

std::vector<Record> FlightRecorder::dump() const { return dump_since(0); }

std::vector<Record> FlightRecorder::dump_since(std::uint64_t epoch) const {
  std::vector<Record> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 == 0 || (seq1 & 1) != 0) continue;  // empty or mid-write
    std::array<std::uint64_t, kPayloadWords> words;
    for (std::size_t i = 0; i < kPayloadWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    // Seqlock re-check: a writer that overwrote the slot during the copy
    // bumped seq (through an odd value), so unequal means torn — skip.
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t seq2 = slot.seq.load(std::memory_order_relaxed);
    if (seq2 != seq1) continue;

    Record r;
    r.seq = seq1 / 2 - 1;
    if (r.seq < epoch) continue;
    r.kind = static_cast<RecordKind>(words[0] & 0xff);
    r.node = static_cast<ftc::NodeId>(words[0] >> 8);
    r.trace_id = words[1];
    r.span_id = words[2];
    r.parent_span_id = words[3];
    r.start_ns = static_cast<std::int64_t>(words[4]);
    r.end_ns = static_cast<std::int64_t>(words[5]);
    r.code = static_cast<std::uint32_t>(words[6]);
    r.value = words[7];
    std::memcpy(r.detail.data(), &words[8], Record::kDetailBytes);
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return out;
}

}  // namespace ftc::obs
