// Process-wide lane of cached threads.
//
// Everything that runs off its caller's thread goes through one lane:
// the fleet chips' drains and design-search waves (DesignSearch with
// num_workers != 1) all submit to WorkPool::shared().
//
//   * submit() gives a task a thread of its own: a parked cached thread
//     when one is free, a fresh one otherwise, and threads park for
//     reuse when their task completes. At any submit, parked threads >=
//     queued tasks, so a queued task never waits for a running one —
//     which is what lets two gated requests on two chips make progress
//     at once on a single-core host. A task may block indefinitely.
//   * run_batch() executes a vector of tasks with *helping* semantics:
//     items are claimed off an atomic cursor, at most batch_threads - 1
//     claim tickets are submitted, and the calling thread claims items
//     too until none remain, then waits for its tickets to exit. The
//     caller alone can finish every item, and each ticket has a thread
//     of its own (above), so nested batches cannot deadlock.
//
// Threads start on first submit and inherit the CPU affinity of the
// thread that started them; an idle pool holds only the threads earlier
// work started.
//
// Bit-identity note: the pool schedules *which thread* runs a task, but
// a design-search wave hands it only the costing of its points, each
// into a slot indexed by point and reading models built before the
// batch; the search does everything else on its calling thread in wave
// order. A parallel search is therefore bit-identical to the serial one
// no matter which threads claim its items.
//
// Shutdown: the destructor stops and joins the threads. Tasks still
// queued via submit() may be dropped — owners of state referenced by
// fire-and-forget tasks (e.g. a fleet chip's drains) must drain or fence
// their own tasks before dying, and no run_batch() may be in progress.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace chainnn::common {

class WorkPool {
 public:
  // `batch_threads` caps the threads one run_batch() occupies, its
  // caller included; submit() is not capped.
  explicit WorkPool(std::int64_t batch_threads);
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  // The process-wide pool, its batches capped at the usable_cpus() of
  // the thread that first uses it. Constructed on first use, lives until
  // process exit.
  [[nodiscard]] static WorkPool& shared();

  // Fire-and-forget: `fn` gets a thread of its own (see file comment)
  // and may block indefinitely.
  void submit(std::function<void()> fn);

  // Runs every task and returns when all completed. The calling thread
  // participates (helping semantics, see file comment); tasks must
  // capture their own exception state — a throw out of a task is fatal.
  void run_batch(std::vector<std::function<void()>> tasks);

 private:
  void thread_loop();

  const std::size_t batch_threads_;

  Mutex mu_;
  CondVar ready_;
  std::deque<std::function<void()>> queue_ CHAINNN_GUARDED_BY(mu_);
  // Threads parked in thread_loop()'s wait (incremented before the
  // wait, decremented on every wake, so it tracks the *actual* parked
  // population even under spurious wakeups). submit() starts a thread
  // whenever the queue would exceed it.
  std::size_t idle_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> threads_ CHAINNN_GUARDED_BY(mu_);
  bool stop_ CHAINNN_GUARDED_BY(mu_) = false;
};

// The CPUs the calling thread may run on (its sched_getaffinity mask),
// or hardware_concurrency when that call fails; at least 1. A process
// pinned to one CPU gets batches its caller runs alone.
[[nodiscard]] std::int64_t usable_cpus();

}  // namespace chainnn::common
