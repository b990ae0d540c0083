// Fixed-size worker pool used by the experiment harness to run independent
// simulations in parallel (one simulation == one task; simulations share no
// mutable state).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace erel {

/// Most workers a pool may be asked for explicitly. Every CLI that sizes a
/// pool refuses larger values up front; ThreadPool aborts on them before
/// starting any thread.
constexpr unsigned kMaxThreads = 1024;

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 means std::thread::hardware_concurrency());
  /// aborts if `threads` exceeds kMaxThreads.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void wait_idle();

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs `fn(i)` for i in [0, count) across the pool and waits for completion.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace erel
