// The federation runtime's worker pool: every scheduled task runs
// exactly once, batches from concurrent submitters complete
// independently, and a single-thread pool still drains its queue (the
// num_threads=1 configuration must behave, even though the runtime
// skips pool creation entirely in that case).

#include "common/thread_pool.h"

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ooint {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> runs{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.emplace_back([&runs] { runs.fetch_add(1); });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(runs.load(), 100);
}

// One RunAll task per index.
std::vector<std::function<void()>> Tasks(std::size_t n,
                                         std::function<void(std::size_t)> fn) {
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < n; ++i) tasks.emplace_back([fn, i] { fn(i); });
  return tasks;
}

TEST(ThreadPoolTest, RunAllCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.RunAll(
      Tasks(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); }));
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.RunAll(Tasks(16, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  }));
  EXPECT_EQ(seen.count(caller), 0u);
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 2u);
}

TEST(ThreadPoolTest, ConcurrentBatchesCompleteIndependently) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  auto submit = [&pool, &total] {
    for (int round = 0; round < 10; ++round) {
      pool.RunAll(Tasks(8, [&total](std::size_t) { total.fetch_add(1); }));
    }
  };
  std::thread a(submit);
  std::thread b(submit);
  submit();
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 3 * 10 * 8);
}

TEST(ThreadPoolTest, SingleThreadPoolDrainsItsQueue) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> runs{0};
  pool.RunAll(Tasks(32, [&runs](std::size_t) { runs.fetch_add(1); }));
  EXPECT_EQ(runs.load(), 32);
}

TEST(ThreadPoolTest, NonPositiveThreadCountClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> runs{0};
  pool.RunAll({[&runs] { runs.fetch_add(1); }});
  EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool pool(2);
  pool.RunAll({});
  pool.RunAll(Tasks(0, [](std::size_t) { FAIL() << "no tasks expected"; }));
}

}  // namespace
}  // namespace ooint
