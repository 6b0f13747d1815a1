// Batches of independent tasks, each run on threads it starts itself.
//
// run_batch() executes a vector of tasks with *helping* semantics: the
// calling thread and at most batch_threads - 1 helper threads started
// for this batch claim items off one atomic cursor until none remain,
// and the batch returns once every helper is joined. The caller alone
// can finish every item and a batch waits on no thread it did not
// start, so nested batches cannot deadlock, and the pool holds no
// thread between batches. Helpers inherit the CPU affinity of the
// batch's caller. Design-search waves (DesignSearch with num_workers !=
// 1) run on WorkPool::shared().
//
// Bit-identity note: the pool schedules *which thread* runs a task, but
// a design-search wave hands it only the costing of its points, each
// into a slot indexed by point and reading models built before the
// batch; the search does everything else on its calling thread in wave
// order. A parallel search is therefore bit-identical to the serial one
// no matter which threads claim its items.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace chainnn::common {

class WorkPool {
 public:
  // `batch_threads` caps the threads one run_batch() occupies, its
  // caller included.
  explicit WorkPool(std::int64_t batch_threads);

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  // The process-wide pool, its batches capped at the usable_cpus() of
  // the thread that first uses it. Constructed on first use, lives until
  // process exit.
  [[nodiscard]] static WorkPool& shared();

  // Runs every task and returns when all completed. The calling thread
  // participates (helping semantics, see file comment); tasks must
  // capture their own exception state — a throw out of a task is fatal.
  void run_batch(std::vector<std::function<void()>> tasks) const;

 private:
  const std::size_t batch_threads_;
};

// The CPUs the calling thread may run on (its sched_getaffinity mask),
// or hardware_concurrency when that call fails; at least 1. A process
// pinned to one CPU gets batches its caller runs alone.
[[nodiscard]] std::int64_t usable_cpus();

}  // namespace chainnn::common
