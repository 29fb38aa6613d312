// transport.hpp - In-process threaded RPC transport with fault injection.
//
// Substitute for Mercury-over-Slingshot: each registered endpoint runs
// worker threads consuming a FIFO request queue.  A call is one shared
// completion record (PendingCall): the caller parks on its 32-bit state
// word with a deadline, the worker writes the reply in place and wakes the
// caller only if it parked.  Both sides sleep on Linux private futexes
// (workers on a per-endpoint sequence word), so an uncontended call costs
// at most four futex syscalls.  A node-local call (the request's
// client_node is the target) that the endpoint could start at once, with
// no fault armed, skips the hand-off: the handler runs on the calling
// thread, holding one of the endpoint's `workers` slots, and costs no
// futex syscall.  A handler may queue
// follow-up work with after_reply(); the worker runs it once the reply is
// delivered, before it takes its next request (Mercury's handler idiom:
// HG_Respond, then keep working).
// Faults are injected at this layer:
//   - kill():  endpoint silently discards requests (crash-stop node — the
//              client sees only timeouts, exactly like a drained Frontier
//              node); revive() undoes it (a drained node handed back to
//              the job, the gray-failure reinstatement experiments);
//   - set_extra_latency(): per-endpoint added delay (a *slow* node — the
//              gray failure the hedged-read path is built to mask);
//   - drop_next(): drop exactly N requests then behave (packet-loss blips);
//   - set_drop_probability(): drop each request with seeded probability p
//              (lossy link; deterministic per request sequence);
//   - set_blocked_senders(): drop every request whose client_node is in a
//              per-endpoint block set (a severed LINK, not a dead node —
//              the building block for symmetric and asymmetric network
//              partitions; both sides stay alive and serve their side);
//   - set_duplicate_probability(): deliver some requests twice (at-least-
//              once fabrics re-send on lost acks; exercises idempotency);
//   - set_reorder(): displace some arrivals a bounded number of slots
//              deeper into the FIFO (multi-path fabrics reorder; bounded
//              so determinism is preserved for a fixed seed).
//
// The FT policy above this layer must work with *no* information other
// than per-request timeouts, matching the paper's autonomous detection.
// cluster::GrayFailureInjector composes these primitives into scheduled,
// seed-deterministic fault scenarios (flapping, staged degradation).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/stats_macros.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "rpc/message.hpp"

namespace ftc::rpc {

/// Alias of the library-wide node identifier (see common/types.hpp).
using NodeId = ftc::NodeId;
using Clock = std::chrono::steady_clock;

/// An endpoint's counters (guarded by the endpoint mutex), the one
/// definition of each: X(field, metric) (common/stats_macros.hpp).
/// Expands to Transport::EndpointStats and the transport's block of
/// Cluster::collect_metrics.
#define FTC_TRANSPORT_STATS(X)                                               \
  X(received, "ftc_transport_received_total")                                \
  /* Of `received`, requests on the data plane (all but the SWIM verbs):  */ \
  /* separates duplicated client work aimed at a dead node from the       */ \
  /* bounded membership-protocol traffic.                                 */ \
  X(received_data, "ftc_transport_received_data_total")                      \
  X(handled, "ftc_transport_handled_total")                                  \
  X(dropped, "ftc_transport_dropped_total")                                  \
  /* kBusy from admission control (in `received` too; never SWIM verbs) */   \
  X(requests_shed, "ftc_transport_requests_shed_total")                      \
  /* sender in the partition block set (in `dropped` too) */                 \
  X(partition_dropped, "ftc_transport_partition_dropped_total")              \
  /* extra deliveries by the duplication fault (in `received` too) */        \
  X(duplicated, "ftc_transport_duplicated_total")                            \
  /* requests displaced out of FIFO order by the reordering fault */         \
  X(reordered, "ftc_transport_reordered_total")                              \
  /* node-local calls served on the caller's thread (in `received` and    */ \
  /* `handled` too)                                                       */ \
  X(local_served, "ftc_transport_local_served_total")

class Transport {
 public:
  using Handler = std::function<RpcResponse(const RpcRequest&)>;

  Transport() = default;
  /// Drains async completions, then stops every endpoint: calls still
  /// queued complete kCancelled at once (their callers return promptly),
  /// handlers already running finish and reply, and workers are joined
  /// after their after_reply tasks have run (see unregister_endpoint).
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Registers a server endpoint; spawns `workers` worker threads
  /// (default 1, the seed's serial endpoint — more lets concurrent
  /// requests to one node actually contend, which the failover-storm
  /// experiments need).  Registering an existing id replaces the handler
  /// only if the old endpoint was unregistered first (returns
  /// kInvalidArgument otherwise).
  Status register_endpoint(NodeId node, Handler handler,
                           std::size_t workers = 1);

  /// Stops and joins an endpoint's workers.  Calls still queued fail with
  /// kCancelled at once; handlers already running finish and reply.  Once
  /// it returns, every after_reply task has run and no handler runs on a
  /// node-local caller's thread.
  Status unregister_endpoint(NodeId node);

  /// Blocking call with deadline.  Timeout produces StatusCode::kTimeout;
  /// calling an unknown endpoint produces kUnavailable immediately (models
  /// a connection refused, distinct from an unresponsive node).
  ///
  /// A node-local call (`request.client_node == target`) runs the handler
  /// on the calling thread when the endpoint could start it at once: it is
  /// not stopping, its queue is empty, fewer than `workers` handlers are
  /// running, and no fault is armed on it.  It counts, samples load,
  /// traces and defers after_reply work as a worker would, and returns
  /// kTimeout if the handler outlasted `timeout`.  Every other call queues.
  StatusOr<RpcResponse> call(NodeId target, RpcRequest request,
                             std::chrono::milliseconds timeout);

  /// Non-blocking variant (Mercury-style): `on_complete` runs on a
  /// background thread with the same result `call` would return.  Async
  /// calls run on a fixed-size completion pool (kAsyncPoolThreads workers,
  /// created on first use or by start_async_pool) — issuing N calls never
  /// spawns N threads; excess calls queue FIFO.  Pending completions are
  /// drained before the transport destructs; callbacks must not destroy
  /// the transport.
  void call_async(NodeId target, RpcRequest request,
                  std::chrono::milliseconds timeout,
                  std::function<void(StatusOr<RpcResponse>)> on_complete);

  /// Creates the completion pool now rather than at the first
  /// call_async (no-op once it exists).  A caller whose async work is
  /// latency-sensitive from the first call starts it ahead of use.
  void start_async_pool();

  /// Blocks until every in-flight async call has completed.
  void drain_async();

  /// Deferred handler work.  Called from a handler running on an endpoint
  /// worker, queues `task`; the worker runs the queue, in call order, right
  /// after it resolves that request's reply and before it picks up its
  /// next request — the caller is already unblocked, yet one worker's
  /// follow-ups land before it serves anything else.  A handler served on
  /// a node-local caller's thread hands its tasks to the endpoint as one
  /// item at the front of the queue, which a worker runs before its next
  /// request.  Called from any
  /// other thread (a handler invoked directly, not through the
  /// transport), runs `task` at once.  A task that calls after_reply runs
  /// the nested task at once too.  unregister_endpoint() and the
  /// destructor join workers only after their queued tasks have run.
  static void after_reply(std::function<void()> task);

  /// Upper bound on completion threads, independent of async-call volume.
  /// Sized for hedged reads: every hedged read holds up to two slots
  /// (primary + hedge), and a slot aimed at a dead node blocks for the
  /// full RPC deadline.  Generous because orphaned primary legs to a
  /// *slow* (gray) node keep their slot for the node's full stall after
  /// the hedge already won — if those orphans exhaust the pool, hedge
  /// legs queue behind them and re-import the very tail hedging masks.
  static constexpr std::size_t kAsyncPoolThreads = 16;

  /// Threads currently owned by the async completion pool: 0 before the
  /// first call_async or start_async_pool, kAsyncPoolThreads after —
  /// never per-call.
  [[nodiscard]] std::size_t async_pool_thread_count() const;

  /// Crash-stop fault: the endpoint stays registered but discards every
  /// request without replying.  Lasts until revive() (never called in the
  /// paper's model — a drained node does not come back within a job).
  void kill(NodeId node);

  /// Undoes kill(): the endpoint serves requests again.  Queued requests
  /// that arrived while killed were already discarded and stay lost.
  void revive(NodeId node);

  [[nodiscard]] bool is_killed(NodeId node) const;

  /// Adds fixed latency before each request is handled (transient
  /// slowness injection; 0 restores normal service).
  void set_extra_latency(NodeId node, std::chrono::milliseconds latency);

  /// Silently drops the next `count` requests to `node`.
  void drop_next(NodeId node, std::uint32_t count);

  /// Drops each request to `node` independently with probability p in
  /// [0, 1], drawn from a seeded per-endpoint stream (deterministic for a
  /// fixed request sequence).  p = 0 restores reliable delivery.
  void set_drop_probability(NodeId node, double p, std::uint64_t seed = 0);

  /// Corrupts the payload of the next `count` responses from `node`
  /// (bit-flip after the checksum is computed) — exercises the client's
  /// end-to-end CRC verification.
  void corrupt_next(NodeId node, std::uint32_t count);

  /// Partition primitive: requests arriving at `node` whose client_node is
  /// in `senders` are silently dropped at admission (the caller times out,
  /// exactly as if the link were cut — the endpoint itself stays alive and
  /// keeps serving everyone else).  Replaces any previous block set; an
  /// empty vector restores full connectivity.  Directional by design: to
  /// sever a link both ways, block each endpoint from the other.
  void set_blocked_senders(NodeId node, std::vector<NodeId> senders);

  /// True when `sender` is currently blocked at `node`'s endpoint.
  [[nodiscard]] bool is_sender_blocked(NodeId node, NodeId sender) const;

  /// Message-duplication fault: each request accepted at `node` is, with
  /// probability p in [0, 1], enqueued twice.  The duplicate is handled by
  /// the server like any request but its response goes nowhere (the caller
  /// waits on the first delivery only) — exactly an at-least-once
  /// fabric re-send.  Seeded per endpoint; p = 0 restores exactly-once.
  void set_duplicate_probability(NodeId node, double p,
                                 std::uint64_t seed = 0);

  /// Bounded-reordering fault: each request accepted at `node` is, with
  /// probability p in [0, 1], inserted up to `max_displacement` slots
  /// ahead of the back of the FIFO, overtaking requests that arrived
  /// before it.  Deterministic for a fixed seed and arrival sequence;
  /// p = 0 restores FIFO delivery.
  void set_reorder(NodeId node, double p, std::uint32_t max_displacement,
                   std::uint64_t seed = 0);

  /// Server admission control: bounds the endpoint's ingress queue.
  /// Enforced at enqueue so a rejection costs the caller one fast kBusy
  /// response instead of a queue wait.  Class-aware shedding:
  ///   - membership-protocol ops (SWIM probes/gossip/sync) are NEVER shed
  ///     — starving the failure detector of liveness evidence during an
  ///     overload is how storms become partitions;
  ///   - data reads shed at `queue_limit`;
  ///   - recache writes (kPut) shed only at twice it — post-failover
  ///     backup placement is the work that ends the storm, so it keeps
  ///     headroom after reads are already bouncing.
  /// A killed endpoint never sheds: a dead node cannot send rejections,
  /// and a fast kBusy would masquerade as liveness.
  struct AdmissionConfig {
    /// 0 = unbounded (legacy behaviour, the default).
    std::size_t queue_limit = 0;
    /// Base of the kBusy retry-after hint; scaled by queue overflow.
    std::uint32_t retry_after_base_ms = 1;
  };
  void set_admission(NodeId node, AdmissionConfig config);

  /// Load reporting: when enabled, every response from `node` (including
  /// admission kBusy rejections) carries an RpcResponse::load_hint — an
  /// EWMA of the endpoint's instantaneous load (ingress queue depth plus
  /// handlers in flight), sampled when a handler starts.  This is the
  /// piggyback channel the bounded-load lookup and hot-file load spreading
  /// consume; clients learn server load purely from traffic they were
  /// sending anyway.  `alpha` in (0, 1] is the EWMA smoothing factor.  Disabled
  /// (the default) leaves load_hint at 0 — bit-for-bit legacy wire.
  struct LoadReportConfig {
    bool enabled = false;
    double alpha = 0.2;
  };
  void set_load_reporting(NodeId node, LoadReportConfig config);

  /// Attaches the node's flight recorder (not owned; must outlive the
  /// endpoint).  Once attached, *sampled* requests get their server-side
  /// admission verdicts recorded: a kServerQueue span from enqueue to
  /// worker pickup (zero-length for a call served on its caller's
  /// thread), and a kServerShed event when admission rejects.
  /// nullptr detaches.  Untraced requests pay one null/flag check.
  void set_flight_recorder(NodeId node, obs::FlightRecorder* recorder);

  /// Telemetry counters.
  struct EndpointStats {
    FTC_TRANSPORT_STATS(FTC_STATS_FIELD)
  };
  [[nodiscard]] EndpointStats stats(NodeId node) const;

  [[nodiscard]] std::size_t endpoint_count() const;

 private:
  /// One call's completion record, shared by the caller and the endpoint
  /// queue so a reply that lands after the caller timed out still writes
  /// into live memory.  `state` is the caller's futex word: kPending until
  /// the caller parks (kParked); the worker writes `response` and then
  /// publishes kDone (or the shutdown sweep kCancelled) with release
  /// semantics, issuing a wake only when the caller parked.  A record with
  /// `tasks` is a task-only item instead: the after_reply work of a
  /// handler served on its caller's thread, run by whoever pops it.
  struct PendingCall {
    static constexpr std::uint32_t kPending = 0;
    static constexpr std::uint32_t kParked = 1;
    static constexpr std::uint32_t kDone = 2;
    static constexpr std::uint32_t kCancelled = 3;

    RpcRequest request;
    std::atomic<std::uint32_t> state{kPending};
    /// Valid once `state` reads kDone (acquire).
    RpcResponse response;
    /// Enqueue timestamp for the kServerQueue span; 0 when untraced.
    std::int64_t enqueue_ns = 0;
    /// Non-empty only in a task-only item.
    std::vector<std::function<void()>> tasks;

    /// Publishes kDone (after writing `response`) or kCancelled; called
    /// once, by whoever popped the call from the queue.
    void complete(std::uint32_t outcome);
    /// Caller side: parks until completed or `deadline`; returns kDone,
    /// kCancelled, or kPending on timeout.
    std::uint32_t wait_until(Clock::time_point deadline);
  };

  struct Endpoint {
    NodeId node = ftc::kInvalidNode;
    Handler handler;
    std::vector<std::thread> workers;
    mutable std::mutex mutex;
    /// Workers' futex word.  An idle worker reads it under `mutex`, counts
    /// itself in `sleepers`, unlocks and parks while it is unchanged; an
    /// enqueuer that sees sleepers bumps it under `mutex` and wakes one
    /// after unlocking, so a wake-up between the unlock and the park is
    /// never lost.
    std::atomic<std::uint32_t> wake_seq{0};
    /// Workers parked or about to park on wake_seq (guarded by `mutex`).
    std::size_t sleepers = 0;
    std::deque<std::shared_ptr<PendingCall>> queue;
    AdmissionConfig admission;
    LoadReportConfig load_report;
    /// Handlers currently executing (incremented at pickup, decremented
    /// when the response is stamped); part of the load sample.
    std::size_t inflight = 0;
    /// The `workers` count: at most this many handlers run at once.
    std::size_t slots = 1;
    /// Slots taken: a worker holds one from pickup until it has run that
    /// item's after_reply tasks, a node-local caller for its whole serve.
    /// Workers wait while every slot is taken.
    std::size_t active = 0;
    /// Smoothed load estimate (queue depth + inflight), updated at worker
    /// pickup under the endpoint mutex.  Only advances while load
    /// reporting is enabled.
    double load_ewma = 0.0;
    bool stopping = false;
    bool killed = false;
    std::chrono::milliseconds extra_latency{0};
    std::uint32_t drops_remaining = 0;
    std::uint32_t corruptions_remaining = 0;
    double drop_probability = 0.0;
    Rng drop_rng{0};
    /// Senders currently cut off from this endpoint (partition fault).
    std::unordered_set<NodeId> blocked_senders;
    double duplicate_probability = 0.0;
    Rng duplicate_rng{0};
    double reorder_probability = 0.0;
    std::uint32_t reorder_depth = 1;
    Rng reorder_rng{0};
    EndpointStats stats;
    /// Per-node flight recorder (not owned); nullptr = tracing off.
    obs::FlightRecorder* recorder = nullptr;
  };

  void worker_loop(Endpoint& endpoint);

  /// Serves a node-local call on the calling thread when `endpoint` could
  /// start it at once with no fault armed; nullopt leaves it to the queue.
  static std::optional<StatusOr<RpcResponse>> serve_inline(
      Endpoint& endpoint, const RpcRequest& request,
      std::chrono::milliseconds timeout);

  /// Under the endpoint mutex, at handler start: counts the handler in
  /// flight, samples the load EWMA and records the kServerQueue span
  /// (when `enqueue_ns` is nonzero).
  static void begin_handler(Endpoint& endpoint, const RpcRequest& request,
                            std::int64_t enqueue_ns);

  /// Under the endpoint mutex, once the handler returned: applies an
  /// armed corruption, counts the request handled and stamps load_hint.
  static void finish_handler(Endpoint& endpoint, RpcResponse& response);

  /// Under the endpoint mutex: gives back a caller-thread serve's slot.
  /// Returns how many parked threads to wake on `wake_seq` (bumped here):
  /// one worker when requests wait, all once the endpoint is stopping.
  static int release_inline_slot(Endpoint& endpoint);

  /// Looks up `node` under the registry lock (shared); null when absent.
  /// The returned reference keeps the endpoint alive after the lock is
  /// released, so a caller can wake its workers outside every lock.
  std::shared_ptr<Endpoint> find_endpoint(NodeId node) const;

  /// Marks the endpoint stopping, cancels every queued call, runs every
  /// queued task-only item and wakes all of its workers.
  static void stop_endpoint(Endpoint& endpoint);

  /// After stop_endpoint: joins the workers, then waits until no handler
  /// runs on a node-local caller's thread.
  static void join_endpoint(Endpoint& endpoint);

  /// With `lock` held on the endpoint mutex: sleeps on `wake_seq` until a
  /// bump (an enqueue, a slot release or a stop), then re-locks.  Callers
  /// re-check their condition in a loop.
  static void park(Endpoint& endpoint, std::unique_lock<std::mutex>& lock);

  /// Exclusive only in register/unregister/~Transport; every other path,
  /// the call path included, takes it shared and only for the lookup.
  mutable std::shared_mutex registry_mutex_;
  std::unordered_map<NodeId, std::shared_ptr<Endpoint>> endpoints_;

  // Async-call bookkeeping: completions run on a bounded pool, created
  // lazily so transports that never go async pay no threads.
  mutable std::mutex async_mutex_;
  std::unique_ptr<common::ThreadPool> async_pool_;
  bool async_shutdown_ = false;
};

}  // namespace ftc::rpc
