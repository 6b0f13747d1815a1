#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"

namespace chainnn::serve {

namespace {
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// `budget_ms` after `from`, saturated to the clock's range: a budget too
// large for the clock never expires and one too negative has already
// passed (a plain duration_cast overflows, which is undefined).
Clock::time_point deadline_after(Clock::time_point from, double budget_ms) {
  CHAINNN_CHECK_MSG(!std::isnan(budget_ms), "deadline_ms must not be NaN");
  using Rep = Clock::rep;
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double, std::milli>(budget_ms))
          .count();
  // -min() is a power of two, so exact as a double; max() is not.
  constexpr double kRange =
      -static_cast<double>(std::numeric_limits<Rep>::min());
  if (ticks >= kRange) return Clock::time_point::max();
  if (ticks < -kRange) return Clock::time_point::min();
  const auto budget = static_cast<Rep>(ticks);
  const Rep at = from.time_since_epoch().count();
  if (budget > 0 && at > std::numeric_limits<Rep>::max() - budget)
    return Clock::time_point::max();
  if (budget < 0 && at < std::numeric_limits<Rep>::min() - budget)
    return Clock::time_point::min();
  return from + Clock::duration(budget);
}

// The journal record that closes a request: COMPLETE for kOk, CANCEL
// (with its cause) for a cancellation or a request that threw.
std::string terminal_record(std::uint64_t tag, const InferenceResult& r,
                            bool failed) {
  if (failed) return encode_cancel(tag, CancelReason::kFailed);
  if (r.status == RequestStatus::kOk) return encode_complete(tag);
  return encode_cancel(tag, r.deadline_expired ? CancelReason::kDeadline
                                               : CancelReason::kToken);
}

// The first layer of a network the fleet may serve; refuses an empty one.
const nn::ConvLayerParams& first_layer(const nn::NetworkModel& net) {
  CHAINNN_CHECK_MSG(!net.conv_layers.empty(), "cannot serve an empty network");
  return net.conv_layers.front();
}

// The deadline an admission-controlled request must be feasible within,
// in seconds; nullopt disables admission for this submit.
std::optional<double> admission_deadline_s(const RequestOptions& options) {
  if (!options.admission || !options.deadline_ms) return std::nullopt;
  return *options.deadline_ms / 1e3;
}
}  // namespace

// One chip's scheduler: a priority/EDF heap drained by the chip's own
// num_threads workers (see inference_server.hpp for the behaviour). It
// retires the router backlog its requests were charged and journals
// their checkpoints and terminal records itself.
class Fleet::Executor {
 public:
  Executor(ServerOptions options, std::size_t chip, Router& router,
           Journal* journal);
  // Pending requests still execute; returns once the workers have run
  // the queue empty and been joined.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Queues an admitted request (blocks while the queue is full).
  // `modelled_seconds` is what the router charged this chip for it;
  // `resume`, when set, is a recovered checkpoint the first attempt
  // adopts.
  [[nodiscard]] std::future<InferenceResult> submit(
      nn::NetworkModel net, Tensor<std::int16_t> input,
      RequestOptions options, double modelled_seconds, std::uint64_t tag,
      std::shared_ptr<chain::RunCheckpoint> resume);
  void wait_idle();
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Task;

  // Runs the task (resuming its checkpoint when it carries one). Returns
  // nullopt when the run was preempted: the task now carries an updated
  // checkpoint and must be re-enqueued by the caller.
  [[nodiscard]] std::optional<InferenceResult> execute_request(Task& task);
  [[nodiscard]] chain::NetworkRunResult run_network(
      const chain::AcceleratorConfig& cfg, const Task& task,
      const std::function<bool()>& cancel_check,
      const std::function<bool()>& preempt_check = {},
      std::shared_ptr<const chain::RunCheckpoint> resume = nullptr);
  // One worker: pops and runs requests, parks while the queue is empty,
  // and returns once stop_ is set and the queue is empty.
  void worker_loop();
  // Sets stop_ and joins every started worker.
  void stop_workers();

  const ServerOptions opts_;
  const std::size_t chip_;
  Router& router_;
  Journal* const journal_;  // nullptr = the fleet does not journal

  mutable Mutex mu_;
  CondVar space_ready_;  // queue dropped below max_queue
  CondVar work_ready_;   // queue grew, or stop_ was set
  CondVar idle_;         // in-flight work finished
  // Heap ordered by Task::scheduled_after.
  std::vector<Task> queue_ CHAINNN_GUARDED_BY(mu_);
  std::int64_t next_id_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::int64_t in_flight_ CHAINNN_GUARDED_BY(mu_) = 0;
  // Workers that have committed to yield (preempt_check returned true)
  // but have not yet re-enqueued their checkpointed task. Caps
  // simultaneous yields at the number of waiting higher-tier tasks, so
  // one urgent arrival cannot stampede every busy worker into a
  // checkpoint it will immediately resume.
  std::int64_t yielding_ CHAINNN_GUARDED_BY(mu_) = 0;
  ServerStats stats_ CHAINNN_GUARDED_BY(mu_);  // plan_cache filled on read
  // Set by the destructor: workers exit once the queue is empty.
  bool stop_ CHAINNN_GUARDED_BY(mu_) = false;
  // Declared last, so the workers start only once every member they
  // read exists. Only the constructor and destructor touch the vector.
  std::vector<std::thread> workers_;
};

struct Fleet::Executor::Task {
  std::int64_t id = 0;
  std::uint64_t tag = 0;  // fleet-wide durable id
  nn::NetworkModel net;
  Tensor<std::int16_t> input;
  RequestOptions options;
  // Absolute deadline derived from deadline_ms at submission time;
  // nullopt when the request has none.
  std::optional<Clock::time_point> deadline;
  Clock::time_point enqueued;
  std::promise<InferenceResult> promise;
  // Set while the request sits in the queue preempted (or was recovered
  // from the journal): the next pickup resumes from here instead of
  // starting over.
  std::shared_ptr<chain::RunCheckpoint> checkpoint;
  // Modelled seconds the router charged this chip at dispatch, and the
  // part already retired for layers banked by preemptions: the terminal
  // outcome retires the rest, so the request is retired exactly once.
  double modelled_seconds = 0.0;
  double retired_seconds = 0.0;
  std::int64_t preempt_count = 0;
  // Execution wall milliseconds of earlier, preempted attempts: the
  // final result's wall_ms covers every attempt, not just the last.
  double wall_ms_accum = 0.0;

  // Heap order (std::push_heap keeps the max on top, so "less" means
  // "scheduled later"): lower priority tier first loses; within a tier
  // the later deadline loses (EDF, no deadline = latest possible); ties
  // fall back to submission order, so a priority-less, deadline-less
  // chip is a FIFO.
  [[nodiscard]] static bool scheduled_after(const Task& a, const Task& b) {
    if (a.options.priority != b.options.priority)
      return a.options.priority < b.options.priority;
    const auto da = a.deadline.value_or(Clock::time_point::max());
    const auto db = b.deadline.value_or(Clock::time_point::max());
    if (da != db) return da > db;
    return a.id > b.id;
  }
};

Fleet::Executor::Executor(ServerOptions options, std::size_t chip,
                          Router& router, Journal* journal)
    : opts_(std::move(options)),
      chip_(chip),
      router_(router),
      journal_(journal) {
  CHAINNN_CHECK_MSG(opts_.num_threads >= 1,
                    "num_threads must be >= 1, got " << opts_.num_threads);
  CHAINNN_CHECK_MSG(opts_.max_queue >= 1,
                    "max_queue must be >= 1, got " << opts_.max_queue);
  // A joinable std::thread destroyed unjoined terminates the process, so
  // a failed start joins the workers already running before rethrowing.
  try {
    for (std::int64_t i = 0; i < opts_.num_threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    stop_workers();
    throw;
  }
}

Fleet::Executor::~Executor() { stop_workers(); }

void Fleet::Executor::stop_workers() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<InferenceResult> Fleet::Executor::submit(
    nn::NetworkModel net, Tensor<std::int16_t> input, RequestOptions options,
    double modelled_seconds, std::uint64_t tag,
    std::shared_ptr<chain::RunCheckpoint> resume) {
  Task task;
  {
    MutexLock lock(mu_);
    task.id = ++next_id_;
  }
  task.tag = tag;
  task.net = std::move(net);
  task.input = std::move(input);
  task.options = std::move(options);
  task.modelled_seconds = modelled_seconds;
  // A recovered checkpoint enters through the same banked-checkpoint
  // slot a live preemption uses, so the resume path downstream is
  // identical (execute_request adopts the prefix, is_resume counts it).
  task.checkpoint = std::move(resume);
  task.enqueued = Clock::now();
  if (task.options.deadline_ms)
    task.deadline = deadline_after(task.enqueued, *task.options.deadline_ms);
  std::future<InferenceResult> future = task.promise.get_future();
  MutexLock lock(mu_);
  // Explicit wait loop (not a predicate lambda) so the guarded reads
  // stay inside this annotated function body.
  while (static_cast<std::int64_t>(queue_.size()) >= opts_.max_queue)
    space_ready_.wait(mu_);
  ++stats_.submitted;
  queue_.push_back(std::move(task));
  std::push_heap(queue_.begin(), queue_.end(), Task::scheduled_after);
  stats_.peak_queue_depth = std::max(
      stats_.peak_queue_depth, static_cast<std::int64_t>(queue_.size()));
  work_ready_.notify_one();
  return future;
}

void Fleet::Executor::wait_idle() {
  MutexLock lock(mu_);
  while (!(queue_.empty() && in_flight_ == 0)) idle_.wait(mu_);
}

ServerStats Fleet::Executor::stats() const {
  ServerStats s;
  {
    MutexLock lock(mu_);
    s = stats_;
  }
  s.plan_cache = opts_.plan_cache->stats();
  return s;
}

chain::NetworkRunResult Fleet::Executor::run_network(
    const chain::AcceleratorConfig& cfg, const Task& task,
    const std::function<bool()>& cancel_check,
    const std::function<bool()>& preempt_check,
    std::shared_ptr<const chain::RunCheckpoint> resume) {
  chain::ChainAccelerator acc(cfg, opts_.plan_cache);
  chain::NetworkRunner runner(acc, opts_.energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = false;  // fidelity sampling checks engines
  ro.inter_layer = task.options.inter_layer;
  ro.weight_init = task.options.weight_init;
  ro.cancel_check = cancel_check;
  ro.preempt_check = preempt_check;
  ro.resume = std::move(resume);
  return runner.run(task.net, task.input, ro);
}

std::optional<InferenceResult> Fleet::Executor::execute_request(Task& task) {
  InferenceResult out;
  out.request_id = task.id;
  out.tag = task.tag;
  out.chip = opts_.name;
  out.modelled_seconds = task.modelled_seconds;
  out.resumed = task.checkpoint != nullptr;
  // The layers a previous attempt already banked; credit for this
  // attempt's preemption counts only layers beyond them.
  const std::size_t banked =
      task.checkpoint ? task.checkpoint->layers.size() : 0;

  chain::AcceleratorConfig cfg = opts_.accelerator;
  if (task.options.exec_mode) cfg.exec_mode = *task.options.exec_mode;
  out.exec_mode = cfg.exec_mode;

  // Cancellation applies to the primary run only: a fidelity replay
  // exists to cross-check a result that was already produced, so
  // interrupting it would only manufacture false divergences.
  const std::optional<Clock::time_point> deadline = task.deadline;
  const std::shared_ptr<std::atomic<bool>> token = task.options.cancel;
  // The cancel decision and its classification (deadline vs token) must
  // come from the same Clock::now() sample: re-sampling at the catch
  // site would let a token-cancelled request be re-classified
  // deadline_expired when the deadline passes between the check and the
  // catch. The deadline is tested first — when both causes hold at the
  // same instant, the deadline wins (the classification the scheduling
  // oracle in test_sched_properties expects).
  bool deadline_caused_cancel = false;
  std::function<bool()> cancel_check;
  if (deadline || token)
    cancel_check = [deadline, token, &deadline_caused_cancel] {
      const auto now = Clock::now();
      if (deadline && now > *deadline) {
        deadline_caused_cancel = true;
        return true;
      }
      if (token && token->load(std::memory_order_relaxed)) {
        deadline_caused_cancel = false;
        return true;
      }
      return false;
    };
  // Preemption: yield at the next layer boundary when a strictly-higher
  // tier is waiting. The queue is a max-heap, so its front is the next
  // request a free worker would take — but yields are capped at the
  // number of waiting higher-tier tasks: with several workers mid-run
  // on low tiers, a single urgent arrival must evict one of them, not
  // stampede all of them into checkpoints they would immediately
  // resume. A worker whose check returns true is committed (the run
  // throws RunPreempted unconditionally) and stays counted in
  // `yielding_` until its checkpoint is re-enqueued.
  std::function<bool()> preempt_check;
  if (opts_.enable_preemption)
    preempt_check = [this, pri = task.options.priority] {
      MutexLock lock(mu_);
      // Fast path: the heap front is the highest-priority waiter, so a
      // front at or below this tier means nothing could preempt.
      if (queue_.empty() || queue_.front().options.priority <= pri)
        return false;
      // Count only *live* higher-tier waiters: a queued request whose
      // cancel token is already set or whose deadline has already passed
      // resolves at pickup without touching the chip, so checkpointing a
      // healthy run to make room for it would be pure wasted work.
      const auto now = Clock::now();
      std::int64_t higher = 0;
      for (const Task& queued : queue_) {
        if (queued.options.priority <= pri) continue;
        if (queued.options.cancel &&
            queued.options.cancel->load(std::memory_order_relaxed))
          continue;
        if (queued.deadline && now > *queued.deadline) continue;
        ++higher;
      }
      if (higher <= yielding_) return false;
      ++yielding_;
      return true;
    };

  const auto t0 = Clock::now();
  out.queue_ms = ms_between(task.enqueued, t0);
  try {
    out.run = run_network(cfg, task, cancel_check, preempt_check,
                          task.checkpoint);
    out.completed_layers =
        static_cast<std::int64_t>(out.run.layers.size());
  } catch (const chain::RunCancelled& cancelled) {
    out.status = RequestStatus::kCancelled;
    out.completed_layers = cancelled.completed_layers();
    // Classified by the cancel_check sample that aborted the run, not a
    // fresh Clock::now() — exactly one terminal deadline classification
    // per request.
    out.deadline_expired = deadline_caused_cancel;
    out.run = chain::NetworkRunResult{};
  } catch (const chain::RunPreempted& preempted) {
    // The yield committed by preempt_check is complete: release the
    // slot here — before the journal append below, which may throw — so
    // a failed append cannot leak the counter and silently disable
    // preemption for the rest of the chip's life.
    {
      MutexLock lock(mu_);
      --yielding_;
    }
    // This attempt's execution time must survive the re-enqueue, or the
    // final result's wall_ms would only cover the last attempt.
    task.wall_ms_accum += ms_between(t0, Clock::now());
    // Bank the checkpoint on the task and retire the modelled seconds of
    // the layers this attempt newly completed ("resume-aware backlog
    // accounting") — capped so cumulative credit never exceeds what the
    // router charged at dispatch (the terminal outcome retires exactly
    // the remainder, so the request is never double-retracted).
    const std::shared_ptr<chain::RunCheckpoint>& cp = preempted.checkpoint();
    double newly = 0.0;
    for (std::size_t i = banked; i < cp->layers.size(); ++i)
      newly += cp->layers[i].run.seconds();
    const double credit = std::min(
        newly, std::max(0.0, task.modelled_seconds - task.retired_seconds));
    task.retired_seconds += credit;
    task.checkpoint = cp;
    ++task.preempt_count;
    router_.complete(chip_, credit);
    // Journal the banked prefix (after the backlog credit, so a replay
    // from this checkpoint observes the same accounting order) so a
    // crash before the request finishes resumes from it instead of
    // replaying from scratch.
    if (journal_)
      journal_->append(encode_checkpoint_payload(task.tag, opts_.name, *cp));
    return std::nullopt;
  }
  out.preemptions = task.preempt_count;
  const auto t1 = Clock::now();
  out.wall_ms = task.wall_ms_accum + ms_between(t0, t1);
  if (out.status == RequestStatus::kOk && deadline && t1 > *deadline)
    out.deadline_missed = true;

  const std::int64_t n = opts_.fidelity_sample_every_n;
  if (out.status == RequestStatus::kOk && n > 0 && task.id % n == 0) {
    // Replay on the other engine and cross-check. NetworkRunner re-draws
    // the same deterministic weights and the input tensor is the stored
    // one, so the two runs are comparable bit for bit.
    chain::AcceleratorConfig replay_cfg = cfg;
    replay_cfg.exec_mode = cfg.exec_mode == chain::ExecMode::kAnalytical
                               ? chain::ExecMode::kCycleAccurate
                               : chain::ExecMode::kAnalytical;
    chain::NetworkRunResult replay = run_network(replay_cfg, task, {});
    if (opts_.fidelity_mutator_for_test)
      opts_.fidelity_mutator_for_test(task.id, replay);
    out.fidelity.sampled = true;
    out.fidelity.diverged =
        !network_runs_identical(out.run, replay, &out.fidelity.detail);
  }
  return out;
}

void Fleet::Executor::worker_loop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stop_ && queue_.empty()) work_ready_.wait(mu_);
    // Stopping with requests queued runs them first: only an empty queue
    // ends a worker.
    if (queue_.empty()) return;
    std::pop_heap(queue_.begin(), queue_.end(), Task::scheduled_after);
    Task task = std::move(queue_.back());
    queue_.pop_back();
    ++in_flight_;
    lock.Unlock();
    space_ready_.notify_one();

    // A request already past its deadline (or cancelled) when it reaches
    // the front — including a deadline in the past at submit, and a
    // checkpointed request cancelled before its resume — resolves
    // kCancelled without touching the execution stack (the checkpointed
    // layers still count as completed work on the result).
    // One Clock::now() sample decides both whether the request is dead
    // on arrival and how the cancellation is classified: a token-set
    // request whose deadline passes between two separate samples must
    // not flip to deadline_expired. Deadline wins when both causes hold
    // at the sampled instant (matching the mid-run classification).
    const auto pickup_now = Clock::now();
    const bool deadline_dead_on_arrival =
        task.deadline && pickup_now > *task.deadline;
    const bool dead_on_arrival =
        deadline_dead_on_arrival ||
        (task.options.cancel &&
         task.options.cancel->load(std::memory_order_relaxed));
    const bool is_resume = !dead_on_arrival && task.checkpoint != nullptr;

    InferenceResult result;
    std::exception_ptr error;
    bool preempted = false;
    if (dead_on_arrival) {
      result.request_id = task.id;
      result.tag = task.tag;
      result.chip = opts_.name;
      result.modelled_seconds = task.modelled_seconds;
      result.preemptions = task.preempt_count;
      result.completed_layers =
          task.checkpoint
              ? static_cast<std::int64_t>(task.checkpoint->layers.size())
              : 0;
      result.status = RequestStatus::kCancelled;
      result.deadline_expired = deadline_dead_on_arrival;
      result.queue_ms = ms_between(task.enqueued, pickup_now);
      // A preempted request cancelled at pickup already executed (and
      // banked) attempts; dropping them would break the invariant that
      // wall_ms covers every execution attempt.
      result.wall_ms = task.wall_ms_accum;
    } else {
      try {
        std::optional<InferenceResult> maybe = execute_request(task);
        if (maybe) {
          result = std::move(*maybe);
        } else {
          preempted = true;
        }
      } catch (...) {
        error = std::current_exception();
      }
    }

    if (preempted) {
      lock.Lock();
      if (is_resume) ++stats_.resumes;
      // Give the checkpointed request its queue slot back (bypassing
      // backpressure — a worker cannot block on its own submit gate).
      ++stats_.preemptions;
      // Restart the queue clock: queue_ms on the final attempt measures
      // the wait since this re-enqueue, not the request's own earlier
      // execution time (which wall_ms_accum already carries).
      task.enqueued = Clock::now();
      queue_.push_back(std::move(task));
      std::push_heap(queue_.begin(), queue_.end(), Task::scheduled_after);
      stats_.peak_queue_depth = std::max(
          stats_.peak_queue_depth, static_cast<std::int64_t>(queue_.size()));
      --in_flight_;
      // The queue just grew: wake a parked worker (this one continues,
      // and may pick up the urgent request itself).
      work_ready_.notify_one();
      continue;
    }
    // Every outcome retires the rest of the routed backlog and journals
    // its terminal record *before* the counters and the promise: by the
    // time a caller observes the result the backlog is retired, and a
    // log with a terminal record never describes a request a caller has
    // not yet been able to observe as done. A failed append fails this
    // request only (a request that already threw keeps its own error).
    router_.complete(chip_, std::max(0.0, task.modelled_seconds -
                                              task.retired_seconds));
    if (journal_) {
      try {
        journal_->append(terminal_record(task.tag, result, error != nullptr));
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    lock.Lock();
    if (is_resume) ++stats_.resumes;
    if (error) {
      ++stats_.failed;
    } else if (result.status == RequestStatus::kCancelled) {
      ++stats_.cancelled;
      if (result.deadline_expired) ++stats_.deadline_expired;
    } else {
      ++stats_.completed;
      if (result.exec_mode == chain::ExecMode::kAnalytical)
        ++stats_.analytical_runs;
      else
        ++stats_.cycle_accurate_runs;
      if (result.deadline_missed) ++stats_.deadline_misses;
      if (result.fidelity.sampled) {
        ++stats_.fidelity_samples;
        if (result.fidelity.diverged) ++stats_.fidelity_divergences;
      }
    }
    lock.Unlock();
    // Fulfill outside the lock: future continuations must not run under
    // the executor mutex.
    if (error) {
      task.promise.set_exception(error);
    } else {
      task.promise.set_value(std::move(result));
    }
    // The request only stops counting as in-flight once its backlog is
    // retired, its record journaled and its future resolved, so
    // wait_idle() => every chip backlog reads fully retired.
    lock.Lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

double FleetStats::modelled_makespan_seconds() const {
  double makespan = 0.0;
  for (const FleetChipStats& chip : chips)
    makespan = std::max(makespan, chip.dispatched_seconds);
  return makespan;
}

Fleet::Fleet(FleetOptions options)
    : cache_(options.plan_cache ? options.plan_cache
                                : std::make_shared<PlanCache>()),
      journal_(std::move(options.journal)),
      input_seed_(options.input_seed) {
  if (options.chips.empty()) options.chips = default_fleet_chips();
  std::vector<ServerOptions> per_chip;
  for (const ChipSpec& chip : options.chips) {
    ServerOptions so;
    so.accelerator = options.accelerator;
    so.accelerator.array = chip.array;
    so.accelerator.memory = chip.memory;
    so.energy = options.energy;
    so.name = chip.name;
    so.num_threads = options.threads_per_chip;
    so.fidelity_sample_every_n = options.fidelity_sample_every_n;
    so.enable_preemption = options.preemption;
    per_chip.push_back(std::move(so));
  }
  start(std::move(options.chips), std::move(per_chip));
}

Fleet::Fleet(ServerOptions so)
    : cache_(so.plan_cache ? so.plan_cache : std::make_shared<PlanCache>()) {
  ChipSpec chip{so.name, so.accelerator.array, so.accelerator.memory};
  std::vector<ServerOptions> per_chip;
  per_chip.push_back(std::move(so));
  start({std::move(chip)}, std::move(per_chip));
}

Fleet::~Fleet() = default;

void Fleet::start(std::vector<ChipSpec> chips,
                  std::vector<ServerOptions> per_chip) {
  router_ = std::make_unique<Router>(std::move(chips), cache_);
  executors_.reserve(per_chip.size());
  for (std::size_t c = 0; c < per_chip.size(); ++c) {
    per_chip[c].plan_cache = cache_;
    executors_.push_back(std::make_unique<Executor>(
        std::move(per_chip[c]), c, *router_, journal_.get()));
  }
}

std::future<InferenceResult> Fleet::journal_and_enqueue(
    const RouteDecision& decision, nn::NetworkModel net,
    Tensor<std::int16_t> input, RequestOptions options, std::uint64_t tag,
    std::shared_ptr<chain::RunCheckpoint> resume) {
  bool journaled = false;  // SUBMIT is on the log
  try {
    if (journal_) {
      SubmitRecord rec;
      rec.tag = tag;
      rec.chip_name = decision.chip_name;
      rec.net = net;
      rec.input = input;
      rec.priority = options.priority;
      rec.exec_mode = options.exec_mode;
      rec.inter_layer = options.inter_layer;
      // SUBMIT hits the log *before* the request can reach a chip queue,
      // so a crash at any later point finds the request journaled: the
      // recovery either sees a terminal record too (done) or replays it
      // — a request is never silently lost.
      journal_->append(encode_submit(rec));
      // A refused admission is terminal at submit; pair the records here
      // so the log never carries a dangling SUBMIT for a request that
      // already resolved kRejected.
      if (!decision.admitted) journal_->append(encode_reject(tag));
      journaled = true;
    }
    if (!decision.admitted) {
      // Infeasible on every chip: resolve the future right here with
      // kRejected. The router charged nothing, no chip ever sees the
      // request, and the trace rollups skip it like any non-kOk entry.
      ++rejected_;
      InferenceResult r;
      r.tag = tag;
      r.status = RequestStatus::kRejected;
      r.chip = decision.chip_name;  // best (still infeasible) chip, for info
      r.modelled_seconds = decision.request_seconds;
      std::promise<InferenceResult> promise;
      promise.set_value(std::move(r));
      return promise.get_future();
    }
    return executors_[decision.chip]->submit(
        std::move(net), std::move(input), std::move(options),
        decision.request_seconds, tag, std::move(resume));
  } catch (...) {
    // Only the executor retires a dispatch, and it never holds a request
    // whose enqueue threw.
    if (decision.admitted) router_->retract(decision);
    // Likewise no terminal record will ever follow the SUBMIT — close it
    // out here or a recovery would replay a request whose submitter saw
    // an exception.
    if (journaled)
      journal_->append(encode_cancel(tag, CancelReason::kFailed));
    throw;
  }
}

std::future<InferenceResult> Fleet::submit_tagged(
    nn::NetworkModel net, Tensor<std::int16_t> input, RequestOptions options,
    std::uint64_t tag, std::shared_ptr<chain::RunCheckpoint> resume) {
  // Validation happens here, before routing: a dispatch charges the
  // chip's backlog, so everything that can be refused is refused first.
  // Routing itself resolves every layer (refusing channels that do not
  // chain) and plans it, so a network that cannot run throws before
  // anything is charged.
  const nn::ConvLayerParams& first = first_layer(net);
  CHAINNN_CHECK(input.shape().rank() == 4);
  CHAINNN_CHECK_MSG(input.shape().dim(1) == first.in_channels,
                    net.name << "/" << first.name << ": expects "
                             << first.in_channels
                             << " channels, the input has "
                             << input.shape().dim(1));
  const RouteDecision decision = router_->route_and_dispatch(
      net, input.shape().dim(0), input.shape().dim(2), input.shape().dim(3),
      options.inter_layer, admission_deadline_s(options));
  return journal_and_enqueue(decision, std::move(net), std::move(input),
                             std::move(options), tag, std::move(resume));
}

std::future<InferenceResult> Fleet::submit(nn::NetworkModel net,
                                           Tensor<std::int16_t> input,
                                           RequestOptions options) {
  return submit_tagged(std::move(net), std::move(input), std::move(options),
                       1 + next_tag_.fetch_add(1));
}

std::future<InferenceResult> Fleet::submit(const nn::NetworkModel& net,
                                           std::int64_t batch,
                                           RequestOptions options) {
  CHAINNN_CHECK_MSG(batch >= 1, "batch must be >= 1, got " << batch);
  const nn::ConvLayerParams& first = first_layer(net);
  // The input is a pure function of (input_seed, tag), so a journaled
  // SUBMIT, a log line or a wire response identifies it by the tag alone.
  const std::uint64_t tag = 1 + next_tag_.fetch_add(1);
  Tensor<std::int16_t> input(
      Shape{batch, first.in_channels, first.in_height, first.in_width});
  Rng rng(input_seed_ ^ (0x9E3779B97F4A7C15ull * tag));
  input.fill_random(rng, -64, 64);
  return submit_tagged(net, std::move(input), std::move(options), tag);
}

RecoveryReport Fleet::recover(const std::string& journal_path) {
  RecoveryReport report;
  JournalAnalysis log = analyze_journal_file(journal_path);
  report.journal_submits = log.submits;
  report.journal_completed = log.completed;
  report.journal_cancelled = log.cancelled;
  report.journal_rejected = log.rejected;
  report.truncated_tail = log.truncated_tail;
  report.checksum_errors = log.checksum_errors;

  // New tags must clear every journaled one: replays keep their original
  // tags and post-recovery submits continue past the maximum.
  std::uint64_t cur = next_tag_.load();
  while (cur < log.max_tag &&
         !next_tag_.compare_exchange_weak(cur, log.max_tag)) {
  }

  const std::vector<ChipSpec>& fleet_chips = router_->chips();
  for (InFlightRequest& req : log.in_flight) {
    SubmitRecord& s = req.submit;
    RequestOptions options;
    options.priority = static_cast<std::int32_t>(s.priority);
    options.exec_mode = s.exec_mode;
    options.inter_layer = s.inter_layer;
    if (req.checkpoint) ++report.resumed_from_checkpoint;

    // Pin the replay to the chip that held it pre-crash — the chip the
    // last checkpoint was captured on, else the chip the router placed
    // it on — so a same-topology recovery reproduces the original run
    // bit for bit (same array => same plans, cycles and ofmaps).
    const std::string& pin_name =
        req.checkpoint ? req.checkpoint_chip : s.chip_name;
    std::optional<std::size_t> pin;
    for (std::size_t c = 0; c < fleet_chips.size(); ++c) {
      if (fleet_chips[c].name == pin_name) {
        pin = c;
        break;
      }
    }

    std::future<InferenceResult> fut;
    if (pin) {
      // Manual dispatch: charge the pinned chip's backlog exactly as
      // route_and_dispatch would have, then enqueue directly.
      RouteDecision d;
      d.chip = *pin;
      d.chip_name = pin_name;
      d.request_seconds = router_->modelled_request_seconds(
          *pin, s.net, s.input.shape().dim(0), s.input.shape().dim(2),
          s.input.shape().dim(3), s.inter_layer);
      router_->dispatch(d);
      fut = journal_and_enqueue(d, std::move(s.net), std::move(s.input),
                                std::move(options), s.tag, req.checkpoint);
    } else {
      // The pre-crash chip is not part of this fleet: fall back to
      // normal routing. With a checkpoint in hand this is the
      // cross-chip handoff — the resumed layers re-plan for the new
      // chip and the ofmaps stay value-identical (the PR-5 guarantee).
      if (req.checkpoint) {
        ++handoffs_;
        ++report.checkpoint_handoffs;
      }
      fut = submit_tagged(std::move(s.net), std::move(s.input),
                          std::move(options), s.tag, req.checkpoint);
    }
    ++recovered_;
    ++report.replayed;
    report.futures.emplace_back(s.tag, std::move(fut));
  }
  return report;
}

RouteDecision Fleet::plan_route(const nn::NetworkModel& net,
                                std::int64_t batch,
                                const RequestOptions& options) const {
  const nn::ConvLayerParams& first = first_layer(net);
  return router_->route(net, batch, first.in_height, first.in_width,
                        options.inter_layer);
}

void Fleet::wait_idle() {
  for (const auto& executor : executors_) executor->wait_idle();
}

double FleetTraceReport::fleet_makespan_seconds() const {
  double makespan = 0.0;
  for (const double busy : busy_seconds) makespan = std::max(makespan, busy);
  return makespan;
}

std::size_t FleetTraceReport::best_single_chip() const {
  CHAINNN_CHECK(!single_chip_seconds.empty());
  std::size_t best = 0;
  for (std::size_t c = 1; c < single_chip_seconds.size(); ++c)
    if (single_chip_seconds[c] < single_chip_seconds[best]) best = c;
  return best;
}

double FleetTraceReport::best_single_seconds() const {
  return single_chip_seconds[best_single_chip()];
}

double FleetTraceReport::modelled_speedup() const {
  const double makespan = fleet_makespan_seconds();
  return makespan == 0.0 ? 0.0 : best_single_seconds() / makespan;
}

FleetTraceReport run_fleet_trace(Fleet& fleet,
                                 const std::vector<FleetTraceEntry>& trace) {
  const std::size_t num_chips = fleet.chips().size();
  FleetTraceReport report;
  report.busy_seconds.assign(num_chips, 0.0);
  report.single_chip_seconds.assign(num_chips, 0.0);

  // Per-entry modelled seconds on every chip, priced up front; charged
  // below only for entries that actually complete, so a cancelled or
  // failed request drops out of *both* sides of the comparison and
  // cannot tilt the modelled speedup toward the fleet.
  std::vector<std::vector<double>> entry_seconds(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const FleetTraceEntry& e = trace[i];
    CHAINNN_CHECK_MSG(e.net && !e.net->conv_layers.empty(),
                      "trace entry without a network");
    const nn::ConvLayerParams& first = e.net->conv_layers.front();
    entry_seconds[i].resize(num_chips);
    for (std::size_t c = 0; c < num_chips; ++c)
      entry_seconds[i][c] = fleet.router().modelled_request_seconds(
          c, *e.net, e.batch, first.in_height, first.in_width,
          e.options.inter_layer);
  }

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(trace.size());
  for (const FleetTraceEntry& e : trace)
    futures.push_back(fleet.submit(*e.net, e.batch, e.options));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult r = futures[i].get();
    if (r.status != RequestStatus::kOk) continue;
    ++report.completed;
    for (std::size_t c = 0; c < num_chips; ++c) {
      report.single_chip_seconds[c] += entry_seconds[i][c];
      if (fleet.chips()[c].name == r.chip)
        report.busy_seconds[c] += r.modelled_seconds;
    }
  }
  return report;
}

FleetStats Fleet::stats() const {
  FleetStats out;
  const std::vector<double> backlog = router_->backlog_seconds();
  const std::vector<double> dispatched = router_->dispatched_seconds();
  const std::vector<std::int64_t> routed = router_->routed_counts();
  out.chips.reserve(executors_.size());
  for (std::size_t c = 0; c < executors_.size(); ++c) {
    FleetChipStats chip;
    chip.name = router_->chips()[c].name;
    chip.server = executors_[c]->stats();
    chip.routed = routed[c];
    chip.backlog_seconds = backlog[c];
    chip.dispatched_seconds = dispatched[c];
    out += chip.server;
    out.chips.push_back(std::move(chip));
  }
  out.plan_cache = cache_->stats();
  out.rejected = rejected_.load();
  out.recovered_requests = recovered_.load();
  out.checkpoint_handoffs = handoffs_.load();
  if (journal_) out.journal = journal_->stats();
  return out;
}

}  // namespace chainnn::serve
