// Process-wide work-stealing thread pool.
//
// Design-search waves (DesignSearch with num_workers != 1) and
// InferenceServer drains all submit to WorkPool::shared(), one pool
// sized to hardware_concurrency, so a fleet of S servers next to a
// parallel search never pins a thread per task on a host with fewer
// cores.
//
// Structure: one deque per worker plus a global injection queue.
//   * submit() from a pool thread pushes onto that worker's own deque
//     (LIFO for the owner — cache-warm); from outside, onto the global
//     queue.
//   * An idle worker pops its own deque from the back, steals from the
//     other workers' fronts (FIFO for thieves — the oldest, coldest
//     work), then falls back to the global queue, then sleeps.
//   * run_batch() executes a vector of tasks with *helping* semantics:
//     items are claimed via an atomic cursor, claim tickets are enqueued
//     for the workers, and the calling thread claims items too until
//     none remain, then waits for the last claimed item to finish. The
//     caller can never deadlock waiting for a full pool — even a
//     1-worker pool running nested batches completes, because every
//     waiter first drains its own batch (the wait graph is a DAG by
//     nesting depth).
//   * submit_blocking() is the lane for tasks that may block for
//     arbitrary stretches (an InferenceServer drain parked on a user
//     hook or a deliberately slow request). Such a task must never
//     occupy one of the fixed stealing workers — on a small host that
//     starves every compute task behind it — so the blocking lane runs
//     on cached threads grown on demand: a submit reuses a parked
//     thread when one is free and spawns a fresh one otherwise, and
//     threads park for reuse when their task completes. At any submit,
//     parked threads >= queued blocking tasks, so blocking tasks never
//     wait on each other — which is what lets two gated requests on two
//     servers make progress simultaneously on a single-core host.
//
// Bit-identity note: the pool schedules *which thread* runs a task, but
// a design-search wave's result slots are indexed by point, not by
// thread, so a parallel search stays bit-identical to the serial order
// no matter how tasks land on workers.
//
// Shutdown: the destructor stops and joins the workers. Tasks still
// queued via submit() may be dropped — owners of state referenced by
// fire-and-forget tasks (e.g. InferenceServer) must drain or fence
// their own tasks before dying; run_batch() callers are immune (the
// caller itself completes any item the workers never picked up).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace chainnn::common {

class WorkPool {
 public:
  // A dedicated pool, mainly for tests; production code shares shared().
  explicit WorkPool(std::int64_t num_threads);
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  // The process-wide pool, sized to hardware_concurrency (>= 1).
  // Constructed on first use, lives until process exit.
  [[nodiscard]] static WorkPool& shared();

  // Fire-and-forget: runs `fn` on some pool worker, eventually. For
  // short compute tasks only — a task that can block must use
  // submit_blocking() or it wedges a stealing worker.
  void submit(std::function<void()> fn);

  // Fire-and-forget on the blocking lane: `fn` gets a thread of its own
  // (a parked cached thread when one is free, a fresh one otherwise)
  // and may block indefinitely without starving the stealing workers.
  void submit_blocking(std::function<void()> fn);

  // Runs every task and returns when all completed. The calling thread
  // participates (helping semantics, see file comment); tasks must
  // capture their own exception state — a throw out of a task is fatal.
  void run_batch(std::vector<std::function<void()>> tasks);

  [[nodiscard]] std::int64_t num_threads() const {
    return static_cast<std::int64_t>(workers_.size());
  }

  // True when the calling thread is one of *this* pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

 private:
  struct Worker {
    Mutex mu;
    std::deque<std::function<void()>> tasks CHAINNN_GUARDED_BY(mu);
    std::thread thread;  // joined by ~WorkPool after stop_, not guarded
  };

  void worker_loop(std::size_t index);
  void blocking_loop();
  // Own deque (back), then steal (fronts), then the global queue.
  [[nodiscard]] bool try_pop(std::size_t index, std::function<void()>& out);
  // Routes to the caller's own deque or the global queue, then signals.
  void enqueue(std::function<void()> fn);

  // Set once in the constructor before workers start; the Worker objects
  // synchronize internally.
  std::vector<std::unique_ptr<Worker>> workers_;

  Mutex mu_;
  CondVar work_ready_;
  std::deque<std::function<void()>> injected_ CHAINNN_GUARDED_BY(mu_);
  // Bumped on every enqueue; a worker that scanned all queues empty
  // sleeps only while the epoch still matches its pre-scan read, which
  // closes the missed-wakeup race without holding mu_ during the scan.
  std::int64_t work_epoch_ CHAINNN_GUARDED_BY(mu_) = 0;
  bool stop_ CHAINNN_GUARDED_BY(mu_) = false;

  // Blocking lane. idle_blocking_ counts threads parked in
  // blocking_loop()'s wait (incremented before the wait, decremented on
  // every wake, so it tracks the *actual* parked population even under
  // spurious wakeups). submit_blocking() spawns a thread whenever the
  // queue would exceed the parked count, which keeps the invariant that
  // no queued blocking task ever waits for a running one to finish.
  CondVar blocking_ready_;
  std::deque<std::function<void()>> blocking_queue_ CHAINNN_GUARDED_BY(mu_);
  std::size_t idle_blocking_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> blocking_threads_ CHAINNN_GUARDED_BY(mu_);
};

}  // namespace chainnn::common
