#include "rpc/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ftc::rpc {
namespace {

using namespace std::chrono_literals;

RpcResponse echo_handler(const RpcRequest& request) {
  RpcResponse response;
  response.code = StatusCode::kOk;
  response.payload = "echo:" + request.path;
  return response;
}

/// A request from a node other than `target`: it always takes the queued
/// path, never the node-local shortcut.
RpcRequest remote_request(NodeId target) {
  RpcRequest request;
  request.client_node = target + 1;
  return request;
}

/// Polls `done` every millisecond for up to two seconds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline = Clock::now() + 2s;
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

struct ShutdownOutcome {
  std::vector<StatusCode> codes;
  std::vector<Clock::duration> took;
};

/// Four callers to a one-worker endpoint whose handler takes 50 ms: one
/// call is running and three are queued when `shut_down` runs.  Returns
/// each caller's status code and how long its call took.
template <typename ShutDown>
ShutdownOutcome shutdown_with_queued_calls(Transport& transport,
                                           ShutDown shut_down) {
  std::atomic<bool> started{false};
  transport.register_endpoint(0, [&started](const RpcRequest& request) {
    started.store(true);
    std::this_thread::sleep_for(50ms);
    return echo_handler(request);
  });
  ShutdownOutcome outcome;
  outcome.codes.resize(4);
  outcome.took.resize(4);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < 4; ++i) {
    callers.emplace_back([&transport, &outcome, i] {
      const auto start = Clock::now();
      const auto result = transport.call(0, remote_request(0), 2000ms);
      outcome.took[i] = Clock::now() - start;
      outcome.codes[i] = result.status().code();
    });
  }
  const bool queued = eventually([&] {
    return started.load() && transport.stats(0).received == 4;
  });
  shut_down();
  for (auto& caller : callers) caller.join();
  EXPECT_TRUE(queued);
  return outcome;
}

void expect_queued_calls_cancelled(const ShutdownOutcome& outcome) {
  int ok = 0;
  int cancelled = 0;
  for (std::size_t i = 0; i < outcome.codes.size(); ++i) {
    if (outcome.codes[i] == StatusCode::kOk) ++ok;
    if (outcome.codes[i] == StatusCode::kCancelled) ++cancelled;
    // Well before the 2 s deadline: no queued call waits it out.
    EXPECT_LT(outcome.took[i], 1000ms) << "call " << i;
  }
  EXPECT_EQ(ok, 1);  // the running handler still replies
  EXPECT_EQ(cancelled, 3);
}

TEST(Transport, CallRoundTrip) {
  Transport transport;
  ASSERT_TRUE(transport.register_endpoint(0, echo_handler).is_ok());
  RpcRequest request;
  request.path = "/file";
  auto result = transport.call(0, request, 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "echo:/file");
  const auto stats = transport.stats(0);
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.handled, 1u);
}

TEST(Transport, UnknownEndpointUnavailable) {
  Transport transport;
  auto result = transport.call(42, RpcRequest{}, 100ms);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(Transport, DoubleRegisterRejected) {
  Transport transport;
  ASSERT_TRUE(transport.register_endpoint(1, echo_handler).is_ok());
  EXPECT_EQ(transport.register_endpoint(1, echo_handler).code(),
            StatusCode::kInvalidArgument);
}

TEST(Transport, UnregisterThenCallUnavailable) {
  Transport transport;
  transport.register_endpoint(2, echo_handler);
  ASSERT_TRUE(transport.unregister_endpoint(2).is_ok());
  auto result = transport.call(2, RpcRequest{}, 100ms);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.unregister_endpoint(2).code(), StatusCode::kNotFound);
}

TEST(Transport, KilledEndpointTimesOut) {
  Transport transport;
  transport.register_endpoint(3, echo_handler);
  transport.kill(3);
  EXPECT_TRUE(transport.is_killed(3));
  const auto start = Clock::now();
  auto result = transport.call(3, RpcRequest{}, 50ms);
  const auto elapsed = Clock::now() - start;
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_GE(elapsed, 45ms);
  EXPECT_EQ(transport.stats(3).dropped, 1u);
}

TEST(Transport, ExtraLatencyBeyondDeadlineTimesOut) {
  Transport transport;
  transport.register_endpoint(4, echo_handler);
  transport.set_extra_latency(4, 100ms);
  auto slow = transport.call(4, RpcRequest{}, 20ms);
  EXPECT_EQ(slow.status().code(), StatusCode::kTimeout);
  // Restore normal service: next call succeeds.
  transport.set_extra_latency(4, 0ms);
  // Give the slow in-flight handler time to drain.
  auto ok = transport.call(4, RpcRequest{}, 2000ms);
  EXPECT_TRUE(ok.is_ok());
}

TEST(Transport, DropNextCausesExactlyNTimeouts) {
  Transport transport;
  transport.register_endpoint(5, echo_handler);
  transport.drop_next(5, 2);
  EXPECT_EQ(transport.call(5, RpcRequest{}, 30ms).status().code(),
            StatusCode::kTimeout);
  EXPECT_EQ(transport.call(5, RpcRequest{}, 30ms).status().code(),
            StatusCode::kTimeout);
  EXPECT_TRUE(transport.call(5, RpcRequest{}, 1000ms).is_ok());
  EXPECT_EQ(transport.stats(5).dropped, 2u);
}

TEST(Transport, ConcurrentCallersFifoService) {
  Transport transport;
  std::atomic<int> served{0};
  transport.register_endpoint(6, [&served](const RpcRequest& request) {
    served.fetch_add(1);
    return echo_handler(request);
  });
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&transport, &ok, i] {
      RpcRequest request;
      request.path = std::to_string(i);
      if (transport.call(6, request, 2000ms).is_ok()) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(served.load(), 8);
}

TEST(Transport, EndpointCount) {
  Transport transport;
  EXPECT_EQ(transport.endpoint_count(), 0u);
  transport.register_endpoint(0, echo_handler);
  transport.register_endpoint(1, echo_handler);
  EXPECT_EQ(transport.endpoint_count(), 2u);
  transport.unregister_endpoint(0);
  EXPECT_EQ(transport.endpoint_count(), 1u);
}

TEST(Transport, StatsForUnknownEndpointAreZero) {
  Transport transport;
  const auto stats = transport.stats(99);
  EXPECT_EQ(stats.received, 0u);
  EXPECT_EQ(stats.handled, 0u);
}

TEST(Transport, KillUnknownIsNoop) {
  Transport transport;
  transport.kill(7);  // must not crash
  EXPECT_FALSE(transport.is_killed(7));
}

TEST(Transport, DestructorDrainsCleanly) {
  // Enqueue work then destroy immediately; no hang, no crash.
  auto transport = std::make_unique<Transport>();
  transport->register_endpoint(0, [](const RpcRequest& request) {
    std::this_thread::sleep_for(5ms);
    return echo_handler(request);
  });
  std::thread caller([&transport] {
    (void)transport->call(0, RpcRequest{}, 500ms);
  });
  caller.join();
  transport.reset();
  SUCCEED();
}

TEST(Transport, UnregisterCancelsQueuedCalls) {
  Transport transport;
  const auto outcome = shutdown_with_queued_calls(transport, [&transport] {
    ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());
  });
  expect_queued_calls_cancelled(outcome);
}

TEST(Transport, DestructorCancelsQueuedCalls) {
  auto transport = std::make_unique<Transport>();
  const auto outcome =
      shutdown_with_queued_calls(*transport, [&transport] { transport.reset(); });
  expect_queued_calls_cancelled(outcome);
}

TEST(Transport, LateReplyAfterTimeoutIsNotSeenByTheNextCall) {
  // A reply that lands after its caller gave up must write into that
  // call's own record, never into the next call this thread makes.
  Transport transport;
  transport.register_endpoint(0, [](const RpcRequest& request) {
    std::this_thread::sleep_for(30ms);
    return echo_handler(request);
  });
  transport.register_endpoint(1, echo_handler);
  RpcRequest late = remote_request(0);
  late.path = "/late";
  EXPECT_EQ(transport.call(0, late, 5ms).status().code(),
            StatusCode::kTimeout);
  RpcRequest next;
  next.path = "/next";
  const auto result = transport.call(1, next, 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "echo:/next");
  // Let the late reply land before the transport goes away.
  EXPECT_TRUE(eventually([&] { return transport.stats(0).handled == 1; }));
  const auto again = transport.call(1, next, 1000ms);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().payload, "echo:/next");
}

TEST(Transport, ParkedWorkersNeverMissAWakeup) {
  // Callers 0-5 each own a one-worker endpoint, so a lost worker wake-up
  // strands that caller until its deadline; callers 6-7 share two
  // three-worker endpoints, so several workers park and wake at once.
  // Every few calls the handler defers a 0-31 us spin with after_reply,
  // which slides the worker's return to its queue across the caller's next
  // enqueue.  A monitor thread polls stats() throughout, so the endpoint
  // mutex is contended and unlocking it can cost the worker a syscall right
  // where a wake-up could slip between its unlock and its park.
  constexpr int kCallers = 8;
  constexpr int kCallsPerCaller = 2500;
  Transport transport;
  const auto handler = [](const RpcRequest& request) {
    const std::uint64_t n = std::stoull(request.path);
    if (n % 4 == 0) {
      Transport::after_reply([until = Clock::now() +
                                      std::chrono::microseconds(n / 4 % 32)] {
        while (Clock::now() < until) {
        }
      });
    }
    return echo_handler(request);
  };
  constexpr NodeId kPrivate = 6;  // endpoints 0-5: one worker each
  for (NodeId node = 0; node < kPrivate + 2; ++node) {
    const std::size_t workers = node < kPrivate ? 1 : 3;
    ASSERT_TRUE(transport.register_endpoint(node, handler, workers).is_ok());
  }
  std::array<int, kCallers> failures{};
  std::atomic<bool> calls_done{false};
  std::thread monitor([&transport, &calls_done] {
    while (!calls_done.load()) {
      for (NodeId node = 0; node < kPrivate; ++node) {
        (void)transport.stats(node);
      }
    }
  });
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&transport, &failures, c] {
      for (int k = 0; k < kCallsPerCaller; ++k) {
        const auto target = static_cast<NodeId>(
            c < static_cast<int>(kPrivate) ? c : kPrivate + k % 2);
        RpcRequest request = remote_request(target);
        request.path = std::to_string(k * 7 + c);
        if (!transport.call(target, request, 2000ms).is_ok()) ++failures[c];
      }
    });
  }
  for (auto& caller : callers) caller.join();
  calls_done.store(true);
  monitor.join();
  std::uint64_t handled = 0;
  for (NodeId node = 0; node < kPrivate + 2; ++node) {
    handled += transport.stats(node).handled;
  }
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(failures[c], 0) << "caller " << c;
  EXPECT_EQ(handled, static_cast<std::uint64_t>(kCallers * kCallsPerCaller));
}

TEST(Transport, AfterReplyRunsAfterTheReplyBeforeTheNextRequest) {
  // One worker: a task queued by request N's handler runs once N's caller
  // holds its reply, and before request N+1 reaches the handler.
  std::mutex mu;
  std::vector<std::string> log;
  const auto append = [&mu, &log](std::string entry) {
    std::lock_guard lock(mu);
    log.push_back(std::move(entry));
  };
  const auto handler = [&append](const RpcRequest& request) {
    append("handle " + request.path);
    Transport::after_reply([&append, path = request.path] {
      append("after " + path);
    });
    Transport::after_reply([&append, path = request.path] {
      append("after2 " + path);
    });
    return echo_handler(request);
  };
  Transport transport;
  ASSERT_TRUE(transport.register_endpoint(0, handler).is_ok());
  for (const char* path : {"a", "b"}) {
    RpcRequest request = remote_request(0);
    request.path = path;
    ASSERT_TRUE(transport.call(0, request, 1000ms).is_ok());
  }
  ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());  // joins the worker
  const std::vector<std::string> expected = {"handle a", "after a", "after2 a",
                                             "handle b", "after b", "after2 b"};
  EXPECT_EQ(log, expected);
}

TEST(Transport, AfterReplyDoesNotDelayTheReply) {
  // The caller is unblocked before the deferred task finishes: the task
  // waits for a flag only the caller sets after its call returned.
  std::atomic<bool> caller_returned{false};
  std::atomic<bool> task_done{false};
  Transport transport;
  transport.register_endpoint(0, [&](const RpcRequest& request) {
    Transport::after_reply([&] {
      while (!caller_returned.load()) std::this_thread::yield();
      task_done.store(true);
    });
    return echo_handler(request);
  });
  const bool replied = transport.call(0, remote_request(0), 1000ms).is_ok();
  const bool done_before_reply = task_done.load();
  caller_returned.store(true);  // before any assert: the task must finish
  ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());
  EXPECT_TRUE(replied);
  EXPECT_FALSE(done_before_reply);
  EXPECT_TRUE(task_done.load());
}

// Node-local calls: a request whose client_node is the target runs on the
// caller's thread when the endpoint could start it at once, fault-free.

/// A request from `node` to its own endpoint.
RpcRequest local_request(NodeId node, std::string path = "/f") {
  RpcRequest request;
  request.client_node = node;
  request.path = std::move(path);
  return request;
}

TEST(TransportLocal, SameNodeCallRunsOnTheCallersThread) {
  std::thread::id ran_on;
  Transport transport;
  ASSERT_TRUE(transport
                  .register_endpoint(2,
                                     [&ran_on](const RpcRequest& request) {
                                       ran_on = std::this_thread::get_id();
                                       return echo_handler(request);
                                     })
                  .is_ok());
  const auto result = transport.call(2, local_request(2), 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "echo:/f");
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  auto stats = transport.stats(2);
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.received_data, 1u);
  EXPECT_EQ(stats.handled, 1u);
  EXPECT_EQ(stats.local_served, 1u);
  // A call from another node still crosses to the endpoint's worker.
  ASSERT_TRUE(transport.call(2, remote_request(2), 1000ms).is_ok());
  EXPECT_NE(ran_on, std::this_thread::get_id());
  stats = transport.stats(2);
  EXPECT_EQ(stats.received, 2u);
  EXPECT_EQ(stats.handled, 2u);
  EXPECT_EQ(stats.local_served, 1u);
}

/// Node 0's one-worker echo endpoint, called only by node 0 itself.
struct LocalEndpoint {
  std::atomic<int> handled{0};  // declared first: outlives the workers
  Transport transport;

  LocalEndpoint() {
    transport.register_endpoint(0, [this](const RpcRequest& request) {
      handled.fetch_add(1);
      return echo_handler(request);
    });
  }
  StatusOr<RpcResponse> call(std::chrono::milliseconds timeout) {
    return transport.call(0, local_request(0), timeout);
  }
  std::uint64_t local_served() const {
    return transport.stats(0).local_served;
  }
};

TEST(TransportLocal, KilledEndpointTakesTheQueuedPathAndTimesOut) {
  LocalEndpoint ep;
  ep.transport.kill(0);
  EXPECT_EQ(ep.call(30ms).status().code(), StatusCode::kTimeout);
  EXPECT_EQ(ep.transport.stats(0).dropped, 1u);
  EXPECT_EQ(ep.handled.load(), 0);
  ep.transport.revive(0);
  EXPECT_TRUE(ep.call(1000ms).is_ok());
  EXPECT_EQ(ep.local_served(), 1u);  // once the fault is gone
}

TEST(TransportLocal, DroppedRequestsTakeTheQueuedPathAndTimeOut) {
  LocalEndpoint ep;
  ep.transport.drop_next(0, 1);
  EXPECT_EQ(ep.call(30ms).status().code(), StatusCode::kTimeout);
  ep.transport.set_drop_probability(0, 1.0, 7);
  EXPECT_EQ(ep.call(30ms).status().code(), StatusCode::kTimeout);
  EXPECT_EQ(ep.transport.stats(0).dropped, 2u);
  ep.transport.set_drop_probability(0, 0.0);
  EXPECT_TRUE(ep.call(1000ms).is_ok());
  EXPECT_EQ(ep.local_served(), 1u);
}

TEST(TransportLocal, CorruptionTakesTheQueuedPathAndFlipsAByte) {
  LocalEndpoint ep;
  ep.transport.corrupt_next(0, 1);
  const auto corrupted = ep.call(1000ms);
  ASSERT_TRUE(corrupted.is_ok());
  EXPECT_EQ(corrupted.value().payload, "dcho:/f");  // 'e' ^ 0x01
  EXPECT_EQ(ep.local_served(), 0u);
  const auto clean = ep.call(1000ms);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_EQ(clean.value().payload, "echo:/f");
}

TEST(TransportLocal, BlockedSenderTakesTheQueuedPathAndTimesOut) {
  LocalEndpoint ep;
  ep.transport.set_blocked_senders(0, {0});
  EXPECT_EQ(ep.call(30ms).status().code(), StatusCode::kTimeout);
  EXPECT_EQ(ep.transport.stats(0).partition_dropped, 1u);
  EXPECT_EQ(ep.handled.load(), 0);
  ep.transport.set_blocked_senders(0, {});
  EXPECT_TRUE(ep.call(1000ms).is_ok());
  EXPECT_EQ(ep.local_served(), 1u);
}

TEST(TransportLocal, ExtraLatencyTakesTheQueuedPathAndTimesOut) {
  LocalEndpoint ep;
  ep.transport.set_extra_latency(0, 100ms);
  EXPECT_EQ(ep.call(20ms).status().code(), StatusCode::kTimeout);
  EXPECT_EQ(ep.local_served(), 0u);
  ep.transport.set_extra_latency(0, 0ms);
  EXPECT_TRUE(ep.call(2000ms).is_ok());
}

TEST(TransportLocal, DuplicationTakesTheQueuedPathAndHandlesTwice) {
  LocalEndpoint ep;
  ep.transport.set_duplicate_probability(0, 1.0, 3);
  EXPECT_TRUE(ep.call(1000ms).is_ok());
  EXPECT_TRUE(eventually([&ep] { return ep.handled.load() == 2; }));
  EXPECT_EQ(ep.transport.stats(0).duplicated, 1u);
  EXPECT_EQ(ep.local_served(), 0u);
}

TEST(TransportLocal, ReorderingTakesTheQueuedPath) {
  LocalEndpoint ep;
  ep.transport.set_reorder(0, 1.0, 2, 5);
  EXPECT_TRUE(ep.call(1000ms).is_ok());
  EXPECT_EQ(ep.local_served(), 0u);
}

TEST(TransportLocal, OneWorkerRunsOneHandlerAtATime) {
  // While the only worker serves a slow remote call, a node-local call
  // queues behind it; while a node-local call holds the only slot, a
  // remote call waits for it.  Either way one handler runs at a time.
  std::atomic<int> running{0};
  std::atomic<int> most{0};
  Transport transport;
  transport.register_endpoint(0, [&](const RpcRequest& request) {
    const int now = running.fetch_add(1) + 1;
    int seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(request.path == "slow" ? 50ms : 1ms);
    running.fetch_sub(1);
    return echo_handler(request);
  });
  RpcRequest slow_remote = remote_request(0);
  slow_remote.path = "slow";
  std::thread remote([&] {
    EXPECT_TRUE(transport.call(0, slow_remote, 2000ms).is_ok());
  });
  EXPECT_TRUE(eventually([&] { return running.load() == 1; }));
  EXPECT_TRUE(transport.call(0, local_request(0), 2000ms).is_ok());
  remote.join();
  EXPECT_EQ(transport.stats(0).local_served, 0u);

  std::this_thread::sleep_for(20ms);  // the worker gives its slot back
  std::thread local([&] {
    EXPECT_TRUE(transport.call(0, local_request(0, "slow"), 2000ms).is_ok());
  });
  EXPECT_TRUE(eventually([&] { return running.load() == 1; }));
  EXPECT_TRUE(transport.call(0, remote_request(0), 2000ms).is_ok());
  local.join();
  EXPECT_EQ(transport.stats(0).local_served, 1u);
  EXPECT_EQ(most.load(), 1);
}

TEST(TransportLocal, AfterReplyRunsAfterTheCallerReturnsBeforeTheNextRequest) {
  // The task of a handler served on its caller's thread runs on a worker:
  // after the caller holds its reply, and before the endpoint serves the
  // next request, node-local or remote.
  std::atomic<bool> caller_returned{false};
  std::atomic<bool> task_done{false};
  std::thread::id task_thread;
  std::vector<bool> task_done_at_handle;
  Transport transport;
  transport.register_endpoint(0, [&](const RpcRequest& request) {
    if (request.path == "a") {
      Transport::after_reply([&] {
        while (!caller_returned.load()) std::this_thread::yield();
        std::this_thread::sleep_for(10ms);  // long enough to be overtaken
        task_thread = std::this_thread::get_id();
        task_done.store(true);
      });
    } else {
      task_done_at_handle.push_back(task_done.load());
    }
    return echo_handler(request);
  });
  const bool replied = transport.call(0, local_request(0, "a"), 1000ms).is_ok();
  const bool done_before_return = task_done.load();
  caller_returned.store(true);  // before any assert: the task must finish
  EXPECT_TRUE(transport.call(0, local_request(0, "b"), 1000ms).is_ok());
  RpcRequest remote = remote_request(0);
  remote.path = "c";
  EXPECT_TRUE(transport.call(0, remote, 1000ms).is_ok());
  ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());
  EXPECT_TRUE(replied);
  EXPECT_FALSE(done_before_return);
  EXPECT_NE(task_thread, std::this_thread::get_id());
  EXPECT_EQ(task_done_at_handle, (std::vector<bool>{true, true}));
}

TEST(TransportLocal, WorkerAfterReplyRunsBeforeTheNextLocalCall) {
  // A worker keeps its slot until its request's after_reply tasks have
  // run, so on a one-worker endpoint a node-local call right after a
  // remote one cannot start before them.
  std::atomic<bool> caller_returned{false};
  std::atomic<bool> task_done{false};
  bool task_done_at_local = false;
  Transport transport;
  transport.register_endpoint(0, [&](const RpcRequest& request) {
    if (request.path == "remote") {
      Transport::after_reply([&] {
        while (!caller_returned.load()) std::this_thread::yield();
        std::this_thread::sleep_for(10ms);  // long enough to be overtaken
        task_done.store(true);
      });
    } else {
      task_done_at_local = task_done.load();
    }
    return echo_handler(request);
  });
  RpcRequest remote = remote_request(0);
  remote.path = "remote";
  const bool replied = transport.call(0, remote, 1000ms).is_ok();
  caller_returned.store(true);  // before any assert: the task must finish
  EXPECT_TRUE(transport.call(0, local_request(0), 1000ms).is_ok());
  ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());
  EXPECT_TRUE(replied);
  EXPECT_TRUE(task_done_at_local);
}

TEST(TransportLocal, AfterReplyRunsBeforeARequestQueuedDuringTheServe) {
  // A remote request that arrives while a node-local handler holds the
  // only slot queues; the handler's after_reply item goes to the front of
  // the queue, so the worker runs the task before that request.
  std::atomic<bool> local_started{false};
  std::atomic<bool> task_done{false};
  bool task_done_at_remote = false;
  Transport transport;
  transport.register_endpoint(0, [&](const RpcRequest& request) {
    if (request.path == "local") {
      local_started.store(true);
      EXPECT_TRUE(eventually([&] { return transport.stats(0).received == 2; }));
      Transport::after_reply([&] {
        std::this_thread::sleep_for(10ms);  // long enough to be overtaken
        task_done.store(true);
      });
    } else {
      task_done_at_remote = task_done.load();
    }
    return echo_handler(request);
  });
  std::thread local([&] {
    EXPECT_TRUE(transport.call(0, local_request(0, "local"), 2000ms).is_ok());
  });
  EXPECT_TRUE(eventually([&] { return local_started.load(); }));
  RpcRequest remote = remote_request(0);
  remote.path = "remote";
  EXPECT_TRUE(transport.call(0, remote, 2000ms).is_ok());
  local.join();
  EXPECT_EQ(transport.stats(0).local_served, 1u);
  EXPECT_TRUE(task_done_at_remote);
}

TEST(TransportLocal, UnregisterRunsQueuedTaskOnlyItems) {
  // A node-local call hands its after_reply task to the endpoint as a
  // queued item.  An unregister_endpoint right after the call returns
  // often finds it still queued and runs it itself; either way the task
  // has run when unregister returns, so a flush waiting on it cannot hang.
  constexpr int kRounds = 50;
  int ran = 0;
  int by_unregister = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> tasks{0};
    std::atomic<bool> on_caller{false};
    const std::thread::id caller = std::this_thread::get_id();
    Transport transport;
    transport.register_endpoint(0, [&](const RpcRequest& request) {
      Transport::after_reply([&] {
        if (std::this_thread::get_id() == caller) on_caller.store(true);
        tasks.fetch_add(1);
      });
      return echo_handler(request);
    });
    ASSERT_TRUE(transport.call(0, local_request(0), 1000ms).is_ok());
    ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());
    ran += tasks.load();
    if (on_caller.load()) ++by_unregister;
  }
  EXPECT_EQ(ran, kRounds);
  RecordProperty("run_by_unregister", by_unregister);
}

TEST(TransportLocal, UnregisterWaitsForACallerThreadHandler) {
  // unregister_endpoint returns only after a handler running on a
  // node-local caller's thread has finished and its task has run.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> handler_done{false};
  std::atomic<bool> task_done{false};
  Transport transport;
  transport.register_endpoint(0, [&](const RpcRequest& request) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
    Transport::after_reply([&] { task_done.store(true); });
    handler_done.store(true);
    return echo_handler(request);
  });
  std::thread local([&] {
    EXPECT_TRUE(transport.call(0, local_request(0), 2000ms).is_ok());
  });
  EXPECT_TRUE(eventually([&] { return started.load(); }));
  bool handler_done_at_return = false;
  bool task_done_at_return = false;
  std::thread stopper([&] {
    EXPECT_TRUE(transport.unregister_endpoint(0).is_ok());
    handler_done_at_return = handler_done.load();
    task_done_at_return = task_done.load();
  });
  std::this_thread::sleep_for(20ms);  // let unregister reach its wait
  release.store(true);
  stopper.join();
  local.join();
  EXPECT_TRUE(handler_done_at_return);
  EXPECT_TRUE(task_done_at_return);
}

TEST(TransportLocal, HandlerSlowerThanTheTimeoutTimesOut) {
  Transport transport;
  transport.register_endpoint(0, [](const RpcRequest& request) {
    std::this_thread::sleep_for(30ms);
    return echo_handler(request);
  });
  EXPECT_EQ(transport.call(0, local_request(0), 5ms).status().code(),
            StatusCode::kTimeout);
  const auto stats = transport.stats(0);
  EXPECT_EQ(stats.local_served, 1u);
  EXPECT_EQ(stats.handled, 1u);
}

TEST(TransportLocal, TracingAndLoadReportingKeepTheShortcut) {
  // A traced node-local call records the same server-side queue span as a
  // remote one, and load reporting stamps its reply.
  obs::FlightRecorder recorder(64);
  Transport transport;
  transport.register_endpoint(0, echo_handler);
  transport.set_flight_recorder(0, &recorder);
  transport.set_load_reporting(0, {true, /*alpha=*/1.0});
  for (const NodeId client : {NodeId{0}, NodeId{1}}) {
    RpcRequest request;
    request.client_node = client;
    request.trace = obs::TraceContext::root();
    const auto result = transport.call(0, request, 1000ms);
    ASSERT_TRUE(result.is_ok());
    // With alpha 1 the estimate is the last sample: this handler alone.
    EXPECT_DOUBLE_EQ(decode_load_hint(result.value().load_hint), 1.0)
        << "client " << client;
    const auto records = recorder.dump();
    EXPECT_TRUE(std::any_of(
        records.begin(), records.end(), [&request](const obs::Record& r) {
          return r.kind == obs::RecordKind::kServerQueue &&
                 r.trace_id == request.trace.trace_id &&
                 r.parent_span_id == request.trace.span_id && r.node == 0;
        }))
        << "client " << client;
  }
  EXPECT_EQ(transport.stats(0).local_served, 1u);
}

}  // namespace
}  // namespace ftc::rpc
