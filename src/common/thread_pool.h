#ifndef OOINT_COMMON_THREAD_POOL_H_
#define OOINT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ooint {

/// A fixed-size worker pool with a single shared FIFO queue — no work
/// stealing, no futures, no task priorities. The parallel federation
/// runtime only ever needs one shape of parallelism: "run this batch of
/// independent tasks, then continue" (overlapped extent fetches), and
/// RunAll() is exactly that barrier.
///
/// Concurrency contract:
///  - RunAll() may be called from several threads at once (concurrent
///    FsmClient queries each running a demand sub-evaluation share one
///    pool); each call blocks only on its own batch.
///  - RunAll() must NOT be called from inside a pool task (a worker
///    waiting on a nested batch could deadlock the pool). The evaluator
///    never nests batches by construction.
///  - Tasks must not throw; error propagation happens through whatever
///    state the task closure writes (an overlapped fetch fills one
///    ExtentReply per request, read after the barrier).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Runs every task to completion and returns. The calling thread only
  /// waits (it does not execute tasks itself), so per-agent blocking
  /// waits inside tasks overlap across the full worker count.
  void RunAll(std::vector<std::function<void()>> tasks);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ooint

#endif  // OOINT_COMMON_THREAD_POOL_H_
