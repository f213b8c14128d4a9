#include "common/thread_pool.h"

namespace ooint {

ThreadPool::ThreadPool(int num_threads) {
  const int count = num_threads < 1 ? 1 : num_threads;
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  // Per-batch completion state lives on the caller's stack; the last
  // task notifies while holding the batch mutex, so the state cannot be
  // destroyed between a worker's final decrement and its notify.
  struct Batch {
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
  };
  Batch batch;
  batch.remaining = tasks.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::function<void()>& task : tasks) {
      queue_.emplace_back([&batch, task = std::move(task)] {
        task();
        std::lock_guard<std::mutex> batch_lock(batch.mu);
        if (--batch.remaining == 0) batch.done.notify_all();
      });
    }
  }
  wake_.notify_all();
  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
}

}  // namespace ooint
