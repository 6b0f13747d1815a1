#include "common/work_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.hpp"

namespace chainnn::common {

WorkPool::WorkPool(std::int64_t batch_threads)
    : batch_threads_(static_cast<std::size_t>(batch_threads)) {
  CHAINNN_CHECK_MSG(batch_threads >= 1,
                    "WorkPool needs >= 1 thread, got " << batch_threads);
}

WorkPool::~WorkPool() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  ready_.notify_all();
  for (std::thread& t : threads) t.join();
}

WorkPool& WorkPool::shared() {
  static WorkPool pool(usable_cpus());
  return pool;
}

std::int64_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

void WorkPool::submit(std::function<void()> fn) {
  MutexLock lock(mu_);
  CHAINNN_CHECK_MSG(!stop_, "submit on a stopped WorkPool");
  // Keep parked threads >= queued tasks: a queued task must never have
  // to wait for a *running* one (which may be parked on a user gate
  // that only this task's progress would release). The thread starts
  // before the task is queued, so a failed start queues nothing.
  if (queue_.size() >= idle_) threads_.emplace_back([this] { thread_loop(); });
  queue_.push_back(std::move(fn));
  ready_.notify_one();
}

void WorkPool::thread_loop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stop_ && queue_.empty()) {
      ++idle_;
      ready_.wait(mu_);
      --idle_;
    }
    if (stop_) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.Unlock();
    task();
    task = nullptr;  // destroy captures before re-parking
    lock.Lock();
  }
}

void WorkPool::run_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;

  // Every claimer takes items off one cursor until none remain, so each
  // item runs on exactly one thread.
  std::atomic<std::size_t> next{0};
  const auto claim = [&tasks, &next] {
    for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
  };

  // The caller is one claimer, so at most n-1 tickets are worth
  // submitting. It waits for every ticket to exit, not just for the last
  // item: no ticket outlives the batch, so the batch's state can live in
  // this frame, and no stale ticket is left queued to make a later
  // submit start a thread.
  const std::size_t tickets = std::min(batch_threads_ - 1, tasks.size() - 1);
  Mutex mu;
  CondVar ticket_exited;
  std::size_t exited = 0;  // guarded by mu
  const auto ticket = [&] {
    claim();
    MutexLock lock(mu);
    ++exited;
    ticket_exited.notify_all();
  };
  std::size_t submitted = 0;
  for (; submitted < tickets; ++submitted) {
    try {
      submit(ticket);
    } catch (...) {
      // No thread (or no memory) for this ticket: it is not needed, as
      // the claimers already running, the caller among them, take its
      // items.
      break;
    }
  }

  claim();

  MutexLock lock(mu);
  while (exited != submitted) ticket_exited.wait(mu);
}

}  // namespace chainnn::common
