#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "rpc/transport.hpp"

namespace ftc::rpc {
namespace {

using namespace std::chrono_literals;

RpcResponse echo_handler(const RpcRequest& request) {
  RpcResponse response;
  response.code = StatusCode::kOk;
  response.payload = "echo:" + request.path;
  return response;
}

TEST(TransportAsync, CompletionDelivered) {
  Transport transport;
  transport.register_endpoint(0, echo_handler);
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::string payload;
  RpcRequest request;
  request.path = "/x";
  transport.call_async(0, std::move(request), 1000ms,
                       [&](StatusOr<RpcResponse> result) {
                         std::lock_guard lock(mutex);
                         ASSERT_TRUE(result.is_ok());
                         payload = result.value().payload.to_string();
                         done = true;
                         cv.notify_one();
                       });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 2s, [&] { return done; }));
  EXPECT_EQ(payload, "echo:/x");
}

TEST(TransportAsync, TimeoutDelivered) {
  Transport transport;
  transport.register_endpoint(0, echo_handler);
  transport.kill(0);
  std::atomic<int> code{-1};
  transport.call_async(0, RpcRequest{}, 30ms,
                       [&](StatusOr<RpcResponse> result) {
                         code = static_cast<int>(result.status().code());
                       });
  transport.drain_async();
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kTimeout));
}

TEST(TransportAsync, ManyConcurrentCompletions) {
  Transport transport;
  transport.register_endpoint(0, echo_handler);
  transport.register_endpoint(1, echo_handler);
  std::atomic<int> completions{0};
  for (int i = 0; i < 32; ++i) {
    RpcRequest request;
    request.path = std::to_string(i);
    transport.call_async(i % 2, std::move(request), 2000ms,
                         [&](StatusOr<RpcResponse> result) {
                           if (result.is_ok()) completions.fetch_add(1);
                         });
  }
  transport.drain_async();
  EXPECT_EQ(completions.load(), 32);
}

TEST(TransportAsync, DrainIsReusable) {
  Transport transport;
  transport.register_endpoint(0, echo_handler);
  std::atomic<int> completions{0};
  auto fire = [&] {
    transport.call_async(0, RpcRequest{}, 1000ms,
                         [&](StatusOr<RpcResponse>) {
                           completions.fetch_add(1);
                         });
  };
  fire();
  transport.drain_async();
  EXPECT_EQ(completions.load(), 1);
  fire();
  transport.drain_async();
  EXPECT_EQ(completions.load(), 2);
}

TEST(TransportAsync, UnknownEndpointImmediateError) {
  Transport transport;
  std::atomic<int> code{-1};
  transport.call_async(9, RpcRequest{}, 100ms,
                       [&](StatusOr<RpcResponse> result) {
                         code = static_cast<int>(result.status().code());
                       });
  transport.drain_async();
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kUnavailable));
}

TEST(TransportAsync, StartAsyncPoolSpawnsThePoolOnce) {
  Transport transport;
  transport.register_endpoint(0, echo_handler);
  EXPECT_EQ(transport.async_pool_thread_count(), 0u);
  transport.start_async_pool();
  EXPECT_EQ(transport.async_pool_thread_count(), Transport::kAsyncPoolThreads);
  transport.start_async_pool();
  std::atomic<int> completions{0};
  transport.call_async(0, RpcRequest{}, 2000ms,
                       [&](StatusOr<RpcResponse> result) {
                         if (result.is_ok()) completions.fetch_add(1);
                       });
  transport.drain_async();
  EXPECT_EQ(completions.load(), 1);
  EXPECT_EQ(transport.async_pool_thread_count(), Transport::kAsyncPoolThreads);
}

TEST(TransportAsync, DestructorDrainsInFlightCalls) {
  std::atomic<int> completions{0};
  {
    Transport transport;
    transport.register_endpoint(0, [](const RpcRequest& request) {
      std::this_thread::sleep_for(10ms);
      return echo_handler(request);
    });
    for (int i = 0; i < 4; ++i) {
      transport.call_async(0, RpcRequest{}, 2000ms,
                           [&](StatusOr<RpcResponse>) {
                             completions.fetch_add(1);
                           });
    }
    // Destructor must wait for all four completions.
  }
  EXPECT_EQ(completions.load(), 4);
}

}  // namespace
}  // namespace ftc::rpc
