#include "common/thread_pool.hpp"

#include "common/log.hpp"

namespace erel {

ThreadPool::ThreadPool(unsigned threads) {
  EREL_CHECK(threads <= kMaxThreads, "thread pool of ", threads,
             " workers exceeds the cap of ", kMaxThreads);
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mu_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  EREL_CHECK(task != nullptr);
  {
    std::unique_lock lock(mu_);
    EREL_CHECK(!stopping_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) pool.submit([&fn, i] { fn(i); });
  pool.wait_idle();
}

}  // namespace erel
