// thread_pool.hpp - Fixed-size worker pool with idle-wait.
//
// Replaces the transport's thread-per-async-call: async completions run
// on one bounded pool per transport.  The pool holds a constant number of
// threads for its whole lifetime; submissions beyond the worker count
// queue up in FIFO order.  Destruction drains the queue (every submitted
// task runs) before joining — callers that need completion-before-teardown
// get it for free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ftc::common {

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers (minimum 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue (all accepted tasks run), then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Returns false (task dropped) when the pool is
  /// stopping — callers that care must complete the work themselves.
  bool submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is running a task.
  /// Reusable: new work may be submitted afterwards.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t completed() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for tasks/stop
  std::condition_variable idle_cv_;   ///< wait_idle waiters
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;            ///< tasks currently executing
  std::uint64_t completed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace ftc::common
