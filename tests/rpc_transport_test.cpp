#include "rpc/transport.hpp"

#include <gtest/gtest.h>

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
      const auto result = transport.call(0, RpcRequest{}, 2000ms);
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
  RpcRequest late;
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
        RpcRequest request;
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
    RpcRequest request;
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
  const bool replied = transport.call(0, RpcRequest{}, 1000ms).is_ok();
  const bool done_before_reply = task_done.load();
  caller_returned.store(true);  // before any assert: the task must finish
  ASSERT_TRUE(transport.unregister_endpoint(0).is_ok());
  EXPECT_TRUE(replied);
  EXPECT_FALSE(done_before_reply);
  EXPECT_TRUE(task_done.load());
}

}  // namespace
}  // namespace ftc::rpc
