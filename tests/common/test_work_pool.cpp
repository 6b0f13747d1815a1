// WorkPool — batches run by their caller and the helper threads each
// batch starts.
//
// These suites run under TSan in CI (`ctest -L concurrency`), so they
// are written to exercise real interleavings: nested run_batch on a pool
// whose batches get one thread (the helping semantics that make nested
// batches deadlock-free), a batch beside threads parked on a gate, and a
// batch run from a thread other than the pool's builder. That gated
// requests on different chips never wait on each other is a property of
// the chips' own workers, pinned in tests/serve/test_fleet.cpp.
#include "common/work_pool.hpp"

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace chainnn::common {
namespace {

// Counts arrivals and lets the test block until a target is reached.
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

TEST(WorkPool, NestedRunBatchCompletesOnSingleThreadBatches) {
  // The helping semantics under test: every run_batch caller claims
  // items itself, so batches capped at one thread — their caller's, with
  // no helper — still complete when nested (the wait graph is a DAG by
  // nesting depth). Without helping, no item of any batch would run.
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

TEST(WorkPool, RunBatchOccupiesAtMostBatchThreads) {
  constexpr std::int64_t kBatchThreads = 3;
  WorkPool pool(kBatchThreads);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i)
    tasks.push_back([&mu, &ids] {
      {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      }
      // Long enough that every helper gets a chance to claim items.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  pool.run_batch(std::move(tasks));
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), static_cast<std::size_t>(kBatchThreads));
}

TEST(WorkPool, RunBatchCompletesWhileOtherThreadsAreGated) {
  // Threads parked on a gate hold no claim on the pool: the batch's
  // caller and the helpers it starts finish it before the gate opens.
  WorkPool pool(4);
  constexpr std::int64_t kGated = 4;
  Latch all_started(kGated);
  std::promise<void> open_gate;
  std::shared_future<void> gate = open_gate.get_future().share();
  std::vector<std::thread> gated;
  for (std::int64_t i = 0; i < kGated; ++i)
    gated.emplace_back([&all_started, gate] {
      all_started.count();
      gate.wait();
    });
  all_started.wait();

  std::atomic<std::int64_t> item_runs{0};
  std::vector<std::function<void()>> items;
  for (int i = 0; i < 16; ++i)
    items.push_back([&item_runs] {
      item_runs.fetch_add(1, std::memory_order_relaxed);
    });
  pool.run_batch(std::move(items));
  EXPECT_EQ(item_runs.load(), 16);

  open_gate.set_value();
  for (std::thread& t : gated) t.join();
}

TEST(WorkPool, RunBatchFromAnotherThreadCompletes) {
  // A batch run from a thread other than the one that built the pool;
  // helping semantics must carry it even on a pool whose batches start
  // no helper.
  WorkPool pool(1);
  std::atomic<std::int64_t> item_runs{0};
  std::thread caller([&pool, &item_runs] {
    std::vector<std::function<void()>> items;
    for (int i = 0; i < 8; ++i)
      items.push_back([&item_runs] {
        item_runs.fetch_add(1, std::memory_order_relaxed);
      });
    pool.run_batch(std::move(items));
  });
  caller.join();
  EXPECT_EQ(item_runs.load(), 8);
}

// The shared pool's batch cap: a thread pinned to one CPU counts one,
// however many CPUs the host has.
TEST(WorkPool, UsableCpusFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(usable_cpus(), CPU_COUNT(&saved));

  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::int64_t pinned = usable_cpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
}

TEST(WorkPool, SharedPoolIsProcessWideSingleton) {
  WorkPool& a = WorkPool::shared();
  WorkPool& b = WorkPool::shared();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace chainnn::common
