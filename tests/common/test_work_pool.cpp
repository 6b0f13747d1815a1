// WorkPool — the process-wide work-stealing pool.
//
// These suites run under TSan in CI (`ctest -L concurrency`), so they
// are written to exercise real interleavings: submit storms from many
// external threads, tasks that spawn tasks (the own-deque path), nested
// run_batch on a deliberately starved single-worker pool (the helping
// semantics that make nested batches deadlock-free), and the blocking
// lane's guarantee that gated tasks never wait on each other.
#include "common/work_pool.hpp"

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace chainnn::common {
namespace {

// Counts completions and lets the test block until a target is reached —
// submit() is fire-and-forget, so completion needs its own signal.
class Latch {
 public:
  explicit Latch(std::int64_t target) : target_(target) {}

  void count() {
    std::lock_guard<std::mutex> lock(mu_);
    if (++done_ == target_) cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_ >= target_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t done_ = 0;
  const std::int64_t target_;
};

TEST(WorkPool, RunBatchExecutesEveryTaskExactlyOnce) {
  WorkPool pool(4);
  constexpr std::int64_t kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (std::int64_t i = 0; i < kTasks; ++i)
    tasks.push_back([&runs, i] {
      runs[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
  pool.run_batch(std::move(tasks));
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(WorkPool, NestedRunBatchCompletesOnSingleWorkerPool) {
  // The helping semantics under test: every run_batch caller claims
  // items itself, so even a 1-worker pool saturated with nested batches
  // makes progress (the wait graph is a DAG by nesting depth). Without
  // helping, outer batches would own the only worker and the inner
  // batches could never run.
  WorkPool pool(1);
  std::atomic<std::int64_t> leaf_runs{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i)
    outer.push_back([&pool, &leaf_runs] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j)
        inner.push_back([&leaf_runs] {
          leaf_runs.fetch_add(1, std::memory_order_relaxed);
        });
      pool.run_batch(std::move(inner));
    });
  pool.run_batch(std::move(outer));
  EXPECT_EQ(leaf_runs.load(), 4 * 8);
}

TEST(WorkPool, SubmitStormFromManyThreadsRunsEverything) {
  WorkPool pool(3);
  constexpr std::int64_t kThreads = 8;
  constexpr std::int64_t kPerThread = 50;
  Latch latch(kThreads * kPerThread);
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::int64_t t = 0; t < kThreads; ++t)
    submitters.emplace_back([&pool, &latch, &total] {
      for (std::int64_t i = 0; i < kPerThread; ++i)
        pool.submit([&latch, &total] {
          total.fetch_add(1, std::memory_order_relaxed);
          latch.count();
        });
    });
  for (std::thread& t : submitters) t.join();
  latch.wait();
  EXPECT_EQ(total.load(), kThreads * kPerThread);
}

TEST(WorkPool, TasksSubmittedFromWorkerThreadsRun) {
  // submit() from a pool thread takes the own-deque (LIFO) path; the
  // fan-out below covers it alongside stealing by the other workers.
  WorkPool pool(2);
  constexpr std::int64_t kFanout = 16;
  Latch latch(1 + kFanout);
  std::atomic<std::int64_t> child_runs{0};
  std::atomic<bool> parent_on_pool{false};
  pool.submit([&] {
    parent_on_pool.store(pool.on_worker_thread());
    for (std::int64_t i = 0; i < kFanout; ++i)
      pool.submit([&latch, &child_runs] {
        child_runs.fetch_add(1, std::memory_order_relaxed);
        latch.count();
      });
    latch.count();
  });
  latch.wait();
  EXPECT_EQ(child_runs.load(), kFanout);
  EXPECT_TRUE(parent_on_pool.load());
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(WorkPool, BlockingLaneNeverMakesGatedTasksWaitOnEachOther) {
  // The invariant InferenceServer's drains (and the fleet tests that
  // gate several chips' requests at once) rely on: K blocking tasks
  // that all park on one gate must ALL reach the gate, however few
  // cores the host has — the lane grows a thread per ungated task
  // instead of queueing behind the parked ones.
  WorkPool pool(1);  // deliberately starved stealing lane
  constexpr std::int64_t kGated = 6;
  Latch all_started(kGated);
  Latch all_done(kGated);
  std::promise<void> open_gate;
  std::shared_future<void> gate = open_gate.get_future().share();
  for (std::int64_t i = 0; i < kGated; ++i)
    pool.submit_blocking([&all_started, &all_done, gate] {
      all_started.count();
      gate.wait();
      all_done.count();
    });
  all_started.wait();  // deadlocks here if gated tasks queue behind
  open_gate.set_value();
  all_done.wait();
}

TEST(WorkPool, BlockingLaneReusesParkedThreads) {
  WorkPool pool(1);
  // Sequential blocking tasks separated by a completion wait: after the
  // first completes its thread parks, so the rest reuse it rather than
  // growing the cache — observable as the pool shutting down promptly
  // with no thread left running (the destructor hangs otherwise).
  std::atomic<std::int64_t> runs{0};
  for (int i = 0; i < 10; ++i) {
    Latch done(1);
    pool.submit_blocking([&runs, &done] {
      runs.fetch_add(1, std::memory_order_relaxed);
      done.count();
    });
    done.wait();
  }
  EXPECT_EQ(runs.load(), 10);
}

TEST(WorkPool, RunBatchFromBlockingTaskCompletes) {
  // A blocking-lane task that fans out a batch calls run_batch from a
  // non-worker thread; helping semantics must carry it even when the
  // stealing worker is busy elsewhere.
  WorkPool pool(1);
  Latch done(1);
  std::atomic<std::int64_t> item_runs{0};
  pool.submit_blocking([&pool, &item_runs, &done] {
    std::vector<std::function<void()>> items;
    for (int i = 0; i < 8; ++i)
      items.push_back([&item_runs] {
        item_runs.fetch_add(1, std::memory_order_relaxed);
      });
    pool.run_batch(std::move(items));
    done.count();
  });
  done.wait();
  EXPECT_EQ(item_runs.load(), 8);
}

TEST(WorkPool, SharedPoolIsProcessWideSingleton) {
  WorkPool& a = WorkPool::shared();
  WorkPool& b = WorkPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1);
}

}  // namespace
}  // namespace chainnn::common
