#include "rpc/transport.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <ctime>
#include <utility>
#include <vector>

namespace ftc::rpc {

namespace {
// Process-private futexes on std::atomic<uint32_t> words.  A private futex
// is keyed by virtual address alone (no mm/inode lookup or reference), so
// each wait and wake is cheaper than on the shared futex libstdc++'s
// promise/future pair uses.  Every wait re-checks its condition in a loop,
// so a spurious or early return is harmless.
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
              std::atomic<std::uint32_t>::is_always_lock_free);

/// Sleeps while `*word == expected`, at most `timeout` (negative: no limit).
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                std::chrono::nanoseconds timeout) {
  timespec ts{};
  timespec* ts_ptr = nullptr;
  if (timeout.count() >= 0) {
    ts.tv_sec = static_cast<std::time_t>(timeout.count() / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout.count() % 1'000'000'000);
    ts_ptr = &ts;
  }
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, expected, ts_ptr, nullptr, 0);
}

void futex_wake(std::atomic<std::uint32_t>& word, int count) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, count, nullptr, nullptr, 0);
}

constexpr std::chrono::nanoseconds kNoTimeout{-1};

/// The after_reply queue of the request the calling endpoint worker is
/// handling; null on every other thread and while no handler runs.
thread_local std::vector<std::function<void()>>* tls_after_reply = nullptr;

/// Runs deferred tasks in order, then empties the list (keeping its
/// capacity).  Off any handler: a task's own after_reply runs at once.
void run_tasks(std::vector<std::function<void()>>& tasks) {
  std::vector<std::function<void()>>* const outer = tls_after_reply;
  tls_after_reply = nullptr;
  for (auto& task : tasks) task();
  tasks.clear();
  tls_after_reply = outer;
}
}  // namespace

void Transport::after_reply(std::function<void()> task) {
  if (tls_after_reply != nullptr) {
    tls_after_reply->push_back(std::move(task));
  } else {
    task();
  }
}

Transport::~Transport() {
  // Async completions first: they may still be blocked inside call(), so
  // the pool must drain while endpoints are alive.  ThreadPool's
  // destructor runs every queued task before joining.
  std::unique_ptr<common::ThreadPool> pool;
  {
    std::lock_guard lock(async_mutex_);
    async_shutdown_ = true;
    pool = std::move(async_pool_);
  }
  pool.reset();
  // Stop every endpoint: queued calls complete as kCancelled at once, so
  // callers still parked on them return promptly instead of waiting out
  // their deadlines; handlers already running finish and reply.
  std::vector<std::shared_ptr<Endpoint>> doomed;
  {
    std::lock_guard registry_lock(registry_mutex_);
    for (auto& [node, endpoint] : endpoints_) {
      doomed.push_back(std::move(endpoint));
    }
    endpoints_.clear();
  }
  for (auto& endpoint : doomed) stop_endpoint(*endpoint);
  for (auto& endpoint : doomed) join_endpoint(*endpoint);
}

Status Transport::register_endpoint(NodeId node, Handler handler,
                                    std::size_t workers) {
  std::lock_guard registry_lock(registry_mutex_);
  if (endpoints_.contains(node)) {
    return Status::invalid_argument("endpoint already registered: " +
                                    std::to_string(node));
  }
  if (workers == 0) {
    return Status::invalid_argument("endpoint needs at least one worker");
  }
  auto endpoint = std::make_shared<Endpoint>();
  endpoint->node = node;
  endpoint->handler = std::move(handler);
  endpoint->slots = workers;
  Endpoint* raw = endpoint.get();
  endpoint->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    endpoint->workers.emplace_back([this, raw] { worker_loop(*raw); });
  }
  endpoints_.emplace(node, std::move(endpoint));
  return Status::ok();
}

Status Transport::unregister_endpoint(NodeId node) {
  std::shared_ptr<Endpoint> endpoint;
  {
    std::lock_guard registry_lock(registry_mutex_);
    const auto it = endpoints_.find(node);
    if (it == endpoints_.end()) {
      return Status::not_found("no endpoint " + std::to_string(node));
    }
    endpoint = std::move(it->second);
    endpoints_.erase(it);
  }
  stop_endpoint(*endpoint);
  join_endpoint(*endpoint);
  return Status::ok();
}

std::shared_ptr<Transport::Endpoint> Transport::find_endpoint(
    NodeId node) const {
  std::shared_lock registry_lock(registry_mutex_);
  const auto it = endpoints_.find(node);
  return it == endpoints_.end() ? nullptr : it->second;
}

void Transport::PendingCall::complete(std::uint32_t outcome) {
  if (state.exchange(outcome, std::memory_order_release) == kParked) {
    futex_wake(state, 1);
  }
}

std::uint32_t Transport::PendingCall::wait_until(Clock::time_point deadline) {
  std::uint32_t seen = state.load(std::memory_order_acquire);
  for (;;) {
    if (seen == kDone || seen == kCancelled) return seen;
    if (seen == kPending &&
        !state.compare_exchange_strong(seen, kParked,
                                       std::memory_order_acquire)) {
      continue;  // completed meanwhile; `seen` holds the outcome
    }
    const auto left = deadline - Clock::now();
    if (left <= Clock::duration::zero()) return kPending;
    futex_wait(state, kParked, left);
    seen = state.load(std::memory_order_acquire);
  }
}

void Transport::stop_endpoint(Endpoint& endpoint) {
  std::deque<std::shared_ptr<PendingCall>> cancelled;
  {
    std::lock_guard lock(endpoint.mutex);
    endpoint.stopping = true;
    cancelled.swap(endpoint.queue);
    endpoint.wake_seq.fetch_add(1, std::memory_order_relaxed);
  }
  futex_wake(endpoint.wake_seq, INT_MAX);
  for (auto& call : cancelled) {
    if (call->tasks.empty()) {
      call->complete(PendingCall::kCancelled);
    } else {
      run_tasks(call->tasks);  // follow-ups of a reply already delivered
    }
  }
}

void Transport::join_endpoint(Endpoint& endpoint) {
  for (auto& worker : endpoint.workers) {
    if (worker.joinable()) worker.join();
  }
  // Workers give their slots back before they exit, so the slots still
  // taken belong to handlers running on node-local callers' threads.
  // Each wakes this thread when it finishes (release_inline_slot).
  std::unique_lock lock(endpoint.mutex);
  while (endpoint.active > 0) park(endpoint, lock);
}

void Transport::park(Endpoint& endpoint, std::unique_lock<std::mutex>& lock) {
  // Read the word before unlocking: a bump after the unlock makes the park
  // below return at once instead of sleeping through that wake-up.
  const std::uint32_t seq = endpoint.wake_seq.load(std::memory_order_relaxed);
  ++endpoint.sleepers;
  lock.unlock();
  futex_wait(endpoint.wake_seq, seq, kNoTimeout);
  lock.lock();
  --endpoint.sleepers;
}

void Transport::begin_handler(Endpoint& endpoint, const RpcRequest& request,
                              std::int64_t enqueue_ns) {
  // Load sample at pickup: requests still queued plus handlers already
  // executing, this one included.  Folding it here (not at enqueue)
  // means a backlog that drains slowly keeps reporting high load for
  // as long as it exists, which is what the spill decision needs.
  ++endpoint.inflight;
  if (endpoint.load_report.enabled) {
    const auto raw =
        static_cast<double>(endpoint.queue.size() + endpoint.inflight);
    endpoint.load_ewma += endpoint.load_report.alpha *
                          (raw - endpoint.load_ewma);
  }
  // Queue-phase span: admission (enqueue) to pickup.  Recorded under the
  // endpoint mutex like the counters; the recorder itself is wait-free so
  // this adds no blocking.
  if (endpoint.recorder != nullptr && enqueue_ns != 0) {
    endpoint.recorder->record_span(
        obs::RecordKind::kServerQueue, request.trace.child(), endpoint.node,
        enqueue_ns, obs::now_ns(), static_cast<std::uint32_t>(StatusCode::kOk),
        endpoint.queue.size(), "queue");
  }
}

void Transport::finish_handler(Endpoint& endpoint, RpcResponse& response) {
  if (endpoint.corruptions_remaining > 0 && !response.payload.empty()) {
    --endpoint.corruptions_remaining;
    // Post-checksum bit-flip on the wire.  Payload bytes are shared and
    // immutable, so the corrupted copy must be a fresh buffer — the
    // server's cached bytes stay intact, exactly like real wire
    // corruption.
    std::string corrupted = response.payload.to_string();
    corrupted[0] ^= 0x01;
    response.payload = common::Buffer(std::move(corrupted));
  }
  // Counted BEFORE the caller gets the response: a caller that observes
  // the response must also observe it in the stats.
  ++endpoint.stats.handled;
  --endpoint.inflight;
  // Piggyback the smoothed load estimate.  Stamped at the transport layer
  // (not in the handler) so every op — reads, puts, pings, SWIM — carries
  // the same signal without the server knowing.
  if (endpoint.load_report.enabled) {
    response.load_hint = encode_load_hint(endpoint.load_ewma);
  }
}

int Transport::release_inline_slot(Endpoint& endpoint) {
  --endpoint.active;
  // A worker that parked while every slot was taken waits for this one.
  // Once stopping, the only sleeper left is join_endpoint.
  const int wake = endpoint.stopping ? INT_MAX
                   : endpoint.queue.empty() ? 0
                                            : 1;
  if (wake == 0 || endpoint.sleepers == 0) return 0;
  endpoint.wake_seq.fetch_add(1, std::memory_order_relaxed);
  return wake;
}

std::optional<StatusOr<RpcResponse>> Transport::serve_inline(
    Endpoint& endpoint, const RpcRequest& request,
    std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  {
    std::lock_guard lock(endpoint.mutex);
    // Only a call a worker would start at once, with no fault armed: every
    // fault keeps its queued semantics, and a busy endpoint keeps FIFO
    // order and its `workers` limit.
    const bool eligible =
        !endpoint.stopping && endpoint.queue.empty() &&
        endpoint.active < endpoint.slots && !endpoint.killed &&
        endpoint.drops_remaining == 0 && endpoint.drop_probability == 0.0 &&
        endpoint.corruptions_remaining == 0 &&
        endpoint.blocked_senders.empty() &&
        endpoint.duplicate_probability == 0.0 &&
        endpoint.reorder_probability == 0.0 &&
        endpoint.extra_latency.count() == 0;
    if (!eligible) return std::nullopt;
    ++endpoint.active;
    ++endpoint.stats.received;
    if (!is_membership_op(request.op)) ++endpoint.stats.received_data;
    ++endpoint.stats.local_served;
    const bool traced = endpoint.recorder != nullptr && request.trace.sampled;
    begin_handler(endpoint, request, traced ? obs::now_ns() : 0);
  }
  std::vector<std::function<void()>> deferred;
  std::vector<std::function<void()>>* const outer = tls_after_reply;
  tls_after_reply = &deferred;
  RpcResponse response = endpoint.handler(request);
  tls_after_reply = outer;
  bool run_here = false;
  int wake = 0;
  {
    std::lock_guard lock(endpoint.mutex);
    finish_handler(endpoint, response);
    if (!deferred.empty()) {
      if (endpoint.stopping) {
        run_here = true;  // the shutdown sweep has already run
      } else {
        // Front of the queue: a worker runs these follow-ups before it
        // takes any request that arrived after this one.
        auto item = std::make_shared<PendingCall>();
        item->tasks = std::move(deferred);
        endpoint.queue.push_front(std::move(item));
      }
    }
    if (!run_here) wake = release_inline_slot(endpoint);
  }
  if (run_here) {
    run_tasks(deferred);
    std::lock_guard lock(endpoint.mutex);
    wake = release_inline_slot(endpoint);
  }
  if (wake > 0) futex_wake(endpoint.wake_seq, wake);
  if (Clock::now() > deadline) {
    return Status::timeout("rpc to node " + std::to_string(endpoint.node));
  }
  return response;
}

StatusOr<RpcResponse> Transport::call(NodeId target, RpcRequest request,
                                      std::chrono::milliseconds timeout) {
  const std::shared_ptr<Endpoint> found = find_endpoint(target);
  if (!found) {
    return Status::unavailable("no endpoint " + std::to_string(target));
  }
  Endpoint& endpoint = *found;
  if (request.client_node == target) {
    if (auto served = serve_inline(endpoint, request, timeout)) {
      return std::move(*served);
    }
  }
  // The queue's reference keeps the record alive if we time out and the
  // worker later writes its reply into the void.
  auto call = std::make_shared<PendingCall>();
  call->request = std::move(request);
  bool wake_worker = false;
  {
    std::lock_guard lock(endpoint.mutex);
    // Lost the race with unregister_endpoint/~Transport, whose sweep
    // cancelled everything queued before this.
    if (endpoint.stopping) return Status::cancelled("endpoint shut down");
    ++endpoint.stats.received;
    if (!is_membership_op(call->request.op)) ++endpoint.stats.received_data;
    // Partition fault: a blocked sender's request dies on the wire — no
    // admission verdict, no response, the caller times out exactly as if
    // the link were cut.  Checked before admission so a severed link can
    // never be mistaken for a fast, live kBusy answer.
    const bool link_cut =
        !endpoint.blocked_senders.empty() &&
        endpoint.blocked_senders.contains(call->request.client_node);
    if (link_cut) {
      ++endpoint.stats.dropped;
      ++endpoint.stats.partition_dropped;
    } else {
      // Admission control: shed at enqueue so a rejection is a fast kBusy
      // answer, not a queue wait.  Membership traffic is never shed, and a
      // killed endpoint never sheds (a dead node cannot answer — a fast
      // rejection would read as liveness and break timeout detection).
      const std::size_t limit = endpoint.admission.queue_limit;
      if (limit > 0 && !endpoint.killed &&
          !is_membership_op(call->request.op)) {
        const std::size_t bound =
            call->request.op == Op::kPut ? limit * 2 : limit;
        if (endpoint.queue.size() >= bound) {
          ++endpoint.stats.requests_shed;
          if (endpoint.recorder != nullptr && call->request.trace.sampled) {
            endpoint.recorder->record_event(
                obs::RecordKind::kServerShed, call->request.trace.child(),
                endpoint.node, static_cast<std::uint32_t>(StatusCode::kBusy),
                endpoint.queue.size(), "admission");
          }
          RpcResponse busy;
          busy.code = StatusCode::kBusy;
          const auto backlog =
              static_cast<std::uint32_t>(endpoint.queue.size() - bound + 1);
          busy.retry_after_ms =
              endpoint.admission.retry_after_base_ms * backlog;
          // A shed IS load evidence — the one response an overloaded node
          // is guaranteed to send quickly, so it carries the hint too.
          if (endpoint.load_report.enabled) {
            busy.load_hint = encode_load_hint(endpoint.load_ewma);
          }
          return busy;
        }
      }
      if (endpoint.recorder != nullptr && call->request.trace.sampled) {
        call->enqueue_ns = obs::now_ns();
      }
      endpoint.queue.push_back(call);
      // Duplication fault: enqueue a second, untraced delivery of the
      // same request.  No caller waits on its record — the server
      // handles it and the response evaporates, which is exactly what a
      // fabric-level re-send looks like to an application.
      if (endpoint.duplicate_probability > 0.0 &&
          endpoint.duplicate_rng.chance(endpoint.duplicate_probability)) {
        auto clone = std::make_shared<PendingCall>();
        clone->request = call->request;
        endpoint.queue.push_back(std::move(clone));
        ++endpoint.stats.received;
        if (!is_membership_op(call->request.op)) {
          ++endpoint.stats.received_data;
        }
        ++endpoint.stats.duplicated;
      }
      // Reordering fault: let this arrival overtake up to reorder_depth
      // queued requests (bounded, seeded — deterministic per sequence).
      if (endpoint.reorder_probability > 0.0 && endpoint.queue.size() > 1 &&
          endpoint.reorder_rng.chance(endpoint.reorder_probability)) {
        const std::size_t depth = std::min<std::size_t>(
            1 + endpoint.reorder_rng.below(
                    std::max<std::uint32_t>(1, endpoint.reorder_depth)),
            endpoint.queue.size() - 1);
        auto moved = std::move(endpoint.queue.back());
        endpoint.queue.pop_back();
        endpoint.queue.insert(endpoint.queue.end() - depth,
                              std::move(moved));
        ++endpoint.stats.reordered;
      }
      if (endpoint.sleepers > 0) {
        endpoint.wake_seq.fetch_add(1, std::memory_order_relaxed);
        wake_worker = true;
      }
    }
  }
  if (wake_worker) futex_wake(endpoint.wake_seq, 1);
  switch (call->wait_until(Clock::now() + timeout)) {
    case PendingCall::kDone:
      return std::move(call->response);
    case PendingCall::kCancelled:
      return Status::cancelled("endpoint shut down");
    default:
      return Status::timeout("rpc to node " + std::to_string(target));
  }
}

void Transport::call_async(
    NodeId target, RpcRequest request, std::chrono::milliseconds timeout,
    std::function<void(StatusOr<RpcResponse>)> on_complete) {
  // Held across submit: the destructor sets async_shutdown_ under this
  // mutex before tearing the pool down, so an accepted submission always
  // lands in a live pool.
  std::lock_guard lock(async_mutex_);
  if (async_shutdown_) {
    if (on_complete) on_complete(Status::cancelled("transport shut down"));
    return;
  }
  if (!async_pool_) {
    async_pool_ = std::make_unique<common::ThreadPool>(kAsyncPoolThreads);
  }
  async_pool_->submit(
      [this, target, request = std::move(request), timeout,
       on_complete = std::move(on_complete)]() mutable {
        auto result = call(target, std::move(request), timeout);
        if (on_complete) on_complete(std::move(result));
      });
}

void Transport::start_async_pool() {
  std::lock_guard lock(async_mutex_);
  if (!async_shutdown_ && !async_pool_) {
    async_pool_ = std::make_unique<common::ThreadPool>(kAsyncPoolThreads);
  }
}

void Transport::drain_async() {
  common::ThreadPool* pool = nullptr;
  {
    std::lock_guard lock(async_mutex_);
    pool = async_pool_.get();
  }
  if (pool != nullptr) pool->wait_idle();
}

std::size_t Transport::async_pool_thread_count() const {
  std::lock_guard lock(async_mutex_);
  return async_pool_ ? async_pool_->thread_count() : 0;
}

void Transport::kill(NodeId node) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->killed = true;
}

void Transport::revive(NodeId node) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->killed = false;
}

bool Transport::is_killed(NodeId node) const {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return false;
  std::lock_guard lock(endpoint->mutex);
  return endpoint->killed;
}

void Transport::set_extra_latency(NodeId node,
                                  std::chrono::milliseconds latency) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->extra_latency = latency;
}

void Transport::drop_next(NodeId node, std::uint32_t count) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->drops_remaining += count;
}

void Transport::set_drop_probability(NodeId node, double p,
                                     std::uint64_t seed) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->drop_probability = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  endpoint->drop_rng.reseed(seed);
}

void Transport::corrupt_next(NodeId node, std::uint32_t count) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->corruptions_remaining += count;
}

void Transport::set_blocked_senders(NodeId node,
                                    std::vector<NodeId> senders) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->blocked_senders.clear();
  endpoint->blocked_senders.insert(senders.begin(), senders.end());
}

bool Transport::is_sender_blocked(NodeId node, NodeId sender) const {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return false;
  std::lock_guard lock(endpoint->mutex);
  return endpoint->blocked_senders.contains(sender);
}

void Transport::set_duplicate_probability(NodeId node, double p,
                                          std::uint64_t seed) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->duplicate_probability = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  endpoint->duplicate_rng.reseed(seed);
}

void Transport::set_reorder(NodeId node, double p,
                            std::uint32_t max_displacement,
                            std::uint64_t seed) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->reorder_probability = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  endpoint->reorder_depth = max_displacement == 0 ? 1 : max_displacement;
  endpoint->reorder_rng.reseed(seed);
}

void Transport::set_admission(NodeId node, AdmissionConfig config) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->admission = config;
}

void Transport::set_load_reporting(NodeId node, LoadReportConfig config) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  if (config.alpha <= 0.0 || config.alpha > 1.0) config.alpha = 0.2;
  endpoint->load_report = config;
}

void Transport::set_flight_recorder(NodeId node,
                                    obs::FlightRecorder* recorder) {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return;
  std::lock_guard lock(endpoint->mutex);
  endpoint->recorder = recorder;
}

Transport::EndpointStats Transport::stats(NodeId node) const {
  const auto endpoint = find_endpoint(node);
  if (!endpoint) return {};
  std::lock_guard lock(endpoint->mutex);
  return endpoint->stats;
}

std::size_t Transport::endpoint_count() const {
  std::shared_lock registry_lock(registry_mutex_);
  return endpoints_.size();
}

void Transport::worker_loop(Endpoint& endpoint) {
  // Reused across requests, so a steady stream of deferred tasks allocates
  // the queue once.
  std::vector<std::function<void()>> deferred;
  // This worker's slot, held from pickup until the item's after_reply
  // tasks have run, so a node-local call cannot start before they land.
  bool holding_slot = false;
  for (;;) {
    std::shared_ptr<PendingCall> call;
    std::chrono::milliseconds latency{0};
    bool task_only = false;
    {
      std::unique_lock lock(endpoint.mutex);
      if (holding_slot) {
        --endpoint.active;
        holding_slot = false;
      }
      while (!endpoint.stopping &&
             (endpoint.queue.empty() ||
              endpoint.active >= endpoint.slots)) {
        park(endpoint, lock);
      }
      if (endpoint.stopping) return;
      call = std::move(endpoint.queue.front());
      endpoint.queue.pop_front();
      ++endpoint.active;
      holding_slot = true;
      task_only = !call->tasks.empty();
      if (task_only) {
        // A caller-thread serve's follow-ups: they run whatever faults are
        // armed, as this worker's own follow-ups would.
        deferred.swap(call->tasks);
      } else {
        if (endpoint.killed) {
          // Crash-stop: discard silently; the call never completes and the
          // client observes a timeout.
          ++endpoint.stats.dropped;
          continue;
        }
        if (endpoint.drops_remaining > 0) {
          --endpoint.drops_remaining;
          ++endpoint.stats.dropped;
          continue;
        }
        if (endpoint.drop_probability > 0.0 &&
            endpoint.drop_rng.chance(endpoint.drop_probability)) {
          ++endpoint.stats.dropped;
          continue;
        }
        latency = endpoint.extra_latency;
        begin_handler(endpoint, call->request, call->enqueue_ns);
      }
    }
    if (!task_only) {
      if (latency.count() > 0) std::this_thread::sleep_for(latency);
      // Handler runs outside the endpoint lock so slow service does not
      // block enqueue/kill operations.
      tls_after_reply = &deferred;
      // Written in place: the caller reads it only after complete() below.
      RpcResponse& response = call->response;
      response = endpoint.handler(call->request);
      tls_after_reply = nullptr;
      {
        std::lock_guard lock(endpoint.mutex);
        finish_handler(endpoint, response);
      }
      call->complete(PendingCall::kDone);
    }
    // after_reply work: the caller already has its answer; this worker
    // finishes the request's follow-ups before it takes the next one.
    run_tasks(deferred);
  }
}

}  // namespace ftc::rpc
