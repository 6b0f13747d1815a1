#include "common/work_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/check.hpp"

namespace chainnn::common {

WorkPool::WorkPool(std::int64_t batch_threads)
    : batch_threads_(static_cast<std::size_t>(batch_threads)) {
  CHAINNN_CHECK_MSG(batch_threads >= 1,
                    "WorkPool needs >= 1 thread, got " << batch_threads);
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

void WorkPool::run_batch(std::vector<std::function<void()>> tasks) const {
  if (tasks.empty()) return;

  // Every claimer takes items off one cursor until none remain, so each
  // item runs on exactly one thread.
  std::atomic<std::size_t> next{0};
  const auto claim = [&tasks, &next] {
    for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
  };

  // The caller is one claimer, so at most n-1 helpers are worth
  // starting. Every helper is joined before returning, so the batch's
  // state can live in this frame.
  const std::size_t helpers = std::min(batch_threads_ - 1, tasks.size() - 1);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < helpers; ++i) {
    try {
      threads.emplace_back(claim);
    } catch (...) {
      // No thread (or no memory) for this helper: it is not needed, as
      // the claimers already running, the caller among them, take its
      // items.
      break;
    }
  }

  claim();
  for (std::thread& t : threads) t.join();
}

}  // namespace chainnn::common
