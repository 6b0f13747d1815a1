#include "serve/inference_server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "common/work_pool.hpp"

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
}  // namespace

bool network_runs_identical(const chain::NetworkRunResult& a,
                            const chain::NetworkRunResult& b,
                            std::string* why) {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (a.layers.size() != b.layers.size())
    return fail("layer counts differ");
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& la = a.layers[i].run;
    const auto& lb = b.layers[i].run;
    const std::string name = a.layers[i].layer.name;
    if (!(la.accumulators == lb.accumulators))
      return fail("accumulators differ at layer " + name);
    if (!(la.ofmaps == lb.ofmaps))
      return fail("ofmaps differ at layer " + name);
    if (la.stats.total_cycles() != lb.stats.total_cycles()) {
      std::ostringstream os;
      os << "cycles differ at layer " << name << ": "
         << la.stats.total_cycles() << " vs " << lb.stats.total_cycles();
      return fail(os.str());
    }
    if (la.traffic.dram_bytes != lb.traffic.dram_bytes ||
        la.traffic.imemory_bytes != lb.traffic.imemory_bytes ||
        la.traffic.kmemory_bytes != lb.traffic.kmemory_bytes ||
        la.traffic.omemory_bytes != lb.traffic.omemory_bytes)
      return fail("traffic differs at layer " + name);
    // Power is a pure function of the plan, so the engines must agree on
    // it bit for bit; comparing it (and the energy rollups below)
    // extends fidelity sampling to the figures capacity planning
    // consumes, not just the tensors.
    const energy::PowerBreakdown& pa = a.layers[i].power;
    const energy::PowerBreakdown& pb = b.layers[i].power;
    if (pa.chain_w != pb.chain_w || pa.kmem_w != pb.kmem_w ||
        pa.imem_w != pb.imem_w || pa.omem_w != pb.omem_w)
      return fail("power differs at layer " + name);
  }
  if (!(a.final_activations == b.final_activations))
    return fail("final activations differ");
  // Whole-run rollups: LayerTraffic totals and the energy/time figures.
  // Per-layer identity already implies these, but the rollups are what
  // dashboards and sweeps actually read, so pin them directly too.
  std::uint64_t traffic_a = 0, traffic_b = 0;
  for (const auto& l : a.layers)
    traffic_a += l.run.traffic.dram_bytes + l.run.traffic.imemory_bytes +
                 l.run.traffic.kmemory_bytes + l.run.traffic.omemory_bytes;
  for (const auto& l : b.layers)
    traffic_b += l.run.traffic.dram_bytes + l.run.traffic.imemory_bytes +
                 l.run.traffic.kmemory_bytes + l.run.traffic.omemory_bytes;
  if (traffic_a != traffic_b) return fail("traffic rollup differs");
  if (a.total_energy_j() != b.total_energy_j())
    return fail("energy rollup differs");
  if (a.total_seconds() != b.total_seconds())
    return fail("seconds rollup differs");
  return true;
}

struct InferenceServer::Task {
  std::int64_t id = 0;
  nn::NetworkModel net;
  Tensor<std::int16_t> input;
  RequestOptions options;
  // Absolute deadline derived from deadline_ms at submission time;
  // nullopt when the request has none.
  std::optional<Clock::time_point> deadline;
  Clock::time_point enqueued;
  std::promise<InferenceResult> promise;
  // Set while the request sits in the queue preempted: the next pickup
  // resumes from here instead of starting over.
  std::shared_ptr<chain::RunCheckpoint> checkpoint;
  // Modelled seconds already credited through preemption_hook for the
  // checkpointed layers; caps further credit and is echoed on the result
  // so completion hooks retire only the remainder.
  double modelled_retired = 0.0;
  std::int64_t preempt_count = 0;
  // Execution wall milliseconds of earlier, preempted attempts: the
  // final result's wall_ms covers every attempt, not just the last.
  double wall_ms_accum = 0.0;

  // Heap order (std::push_heap keeps the max on top, so "less" means
  // "scheduled later"): lower priority tier first loses; within a tier
  // the later deadline loses (EDF, no deadline = latest possible); ties
  // fall back to submission order, which makes a priority-less,
  // deadline-less server exactly the old FIFO.
  [[nodiscard]] static bool scheduled_after(const Task& a, const Task& b) {
    if (a.options.priority != b.options.priority)
      return a.options.priority < b.options.priority;
    const auto da = a.deadline.value_or(Clock::time_point::max());
    const auto db = b.deadline.value_or(Clock::time_point::max());
    if (da != db) return da > db;
    return a.id > b.id;
  }
};

struct InferenceServer::State {
  mutable Mutex mu;
  CondVar space_ready;  // queue dropped below max_queue
  CondVar idle;         // completed caught up to submitted / drains retired
  // Heap ordered by Task::scheduled_after.
  std::vector<Task> queue CHAINNN_GUARDED_BY(mu);

  std::int64_t next_id CHAINNN_GUARDED_BY(mu) = 0;
  std::int64_t in_flight CHAINNN_GUARDED_BY(mu) = 0;
  // Drain tasks live on the shared WorkPool for this server. The
  // invariant a drain's exit protocol maintains: the queue is non-empty
  // only while at least one drain is scheduled (a drain retires under mu
  // in the same critical section that observes the queue empty, so any
  // later enqueue sees the decremented count and schedules afresh).
  std::int64_t scheduled_drains CHAINNN_GUARDED_BY(mu) = 0;
  // Workers that have committed to yield (preempt_check returned true)
  // but have not yet re-enqueued their checkpointed task. Caps
  // simultaneous yields at the number of waiting higher-tier tasks, so
  // one urgent arrival cannot stampede every busy worker into a
  // checkpoint it will immediately resume.
  std::int64_t yielding CHAINNN_GUARDED_BY(mu) = 0;
  ServerStats stats CHAINNN_GUARDED_BY(mu);  // plan_cache filled on read
};

InferenceServer::InferenceServer(ServerOptions options)
    : opts_(std::move(options)),
      cache_(opts_.plan_cache ? opts_.plan_cache
                              : std::make_shared<PlanCache>()),
      arena_(opts_.arena ? opts_.arena : std::make_shared<TensorArena>()),
      state_(new State) {
  CHAINNN_CHECK_MSG(opts_.num_threads >= 1,
                    "num_threads must be >= 1, got " << opts_.num_threads);
  CHAINNN_CHECK_MSG(opts_.max_queue >= 1,
                    "max_queue must be >= 1, got " << opts_.max_queue);
}

InferenceServer::~InferenceServer() {
  {
    // Pending requests still execute (their drains are already
    // scheduled); wait for the last drain to retire so no pool task
    // references this server afterwards. Drains never sleep — they
    // retire the moment the queue is empty — so this terminates.
    MutexLock lock(state_->mu);
    while (!(state_->queue.empty() && state_->in_flight == 0 &&
             state_->scheduled_drains == 0))
      state_->idle.wait(state_->mu);
  }
  delete state_;
}

std::future<InferenceResult> InferenceServer::submit(
    nn::NetworkModel net, Tensor<std::int16_t> input,
    RequestOptions options) {
  CHAINNN_CHECK_MSG(!net.conv_layers.empty(),
                    "cannot serve an empty network");
  CHAINNN_CHECK(input.shape().rank() == 4);

  Task task;
  task.id = allocate_id();
  task.net = std::move(net);
  task.input = std::move(input);
  task.options = std::move(options);
  // A recovered checkpoint enters through the same banked-checkpoint
  // slot a live preemption uses, so the resume path downstream is
  // identical (execute_request adopts the prefix, is_resume counts it).
  task.checkpoint = std::move(task.options.resume);
  return enqueue(std::move(task));
}

std::future<InferenceResult> InferenceServer::submit(
    const nn::NetworkModel& net, std::int64_t batch,
    RequestOptions options) {
  CHAINNN_CHECK_MSG(batch >= 1, "batch must be >= 1, got " << batch);
  CHAINNN_CHECK_MSG(!net.conv_layers.empty(),
                    "cannot serve an empty network");
  // The id is claimed before the input is generated, so the input is a
  // pure function of (input_seed, request_id) even under concurrent
  // submitters — a logged divergence can be reproduced offline from the
  // id alone.
  Task task;
  task.id = allocate_id();
  const nn::ConvLayerParams& first = net.conv_layers.front();
  task.input = Tensor<std::int16_t>(
      Shape{batch, first.in_channels, first.in_height, first.in_width});
  // Rng SplitMix64-expands its seed, so the xor'd id is enough to
  // decorrelate per-request streams.
  Rng rng(opts_.input_seed ^ static_cast<std::uint64_t>(task.id));
  task.input.fill_random(rng, -64, 64);
  task.net = net;
  task.options = std::move(options);
  task.checkpoint = std::move(task.options.resume);
  return enqueue(std::move(task));
}

std::int64_t InferenceServer::allocate_id() {
  MutexLock lock(state_->mu);
  return ++state_->next_id;
}

std::future<InferenceResult> InferenceServer::enqueue(Task&& task) {
  task.enqueued = Clock::now();
  if (task.options.deadline_ms)
    task.deadline = deadline_after(task.enqueued, *task.options.deadline_ms);
  std::future<InferenceResult> future = task.promise.get_future();
  {
    MutexLock lock(state_->mu);
    // Explicit wait loop (not a predicate lambda) so the guarded reads
    // stay inside this annotated function body.
    while (static_cast<std::int64_t>(state_->queue.size()) >=
           opts_.max_queue)
      state_->space_ready.wait(state_->mu);
    ++state_->stats.submitted;
    state_->queue.push_back(std::move(task));
    std::push_heap(state_->queue.begin(), state_->queue.end(),
                   Task::scheduled_after);
    state_->stats.peak_queue_depth =
        std::max(state_->stats.peak_queue_depth,
                 static_cast<std::int64_t>(state_->queue.size()));
    // Schedule drains up to the concurrency cap. The demand is the
    // queued tasks plus the ones drains are already executing (each
    // in-flight request occupies one drain), so a second drain spins up
    // for a task that arrives while the first is mid-run.
    const std::int64_t demand =
        static_cast<std::int64_t>(state_->queue.size()) + state_->in_flight;
    while (state_->scheduled_drains < std::min(opts_.num_threads, demand)) {
      ++state_->scheduled_drains;
      common::WorkPool::shared().submit_blocking([this] { drain_loop(); });
    }
  }
  return future;
}

void InferenceServer::wait_idle() {
  MutexLock lock(state_->mu);
  while (!(state_->queue.empty() && state_->in_flight == 0))
    state_->idle.wait(state_->mu);
}

ServerStats InferenceServer::stats() const {
  ServerStats s;
  {
    MutexLock lock(state_->mu);
    s = state_->stats;
  }
  s.plan_cache = cache_->stats();
  s.arena = arena_->stats();
  return s;
}

chain::NetworkRunResult InferenceServer::run_network(
    const chain::AcceleratorConfig& cfg, const Task& task,
    const std::function<bool()>& cancel_check,
    const std::function<bool()>& preempt_check,
    std::shared_ptr<const chain::RunCheckpoint> resume) {
  chain::ChainAccelerator acc(cfg, cache_);
  chain::NetworkRunner runner(acc, opts_.energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = task.options.verify_against_golden;
  ro.inter_layer = task.options.inter_layer;
  ro.weight_init = task.options.weight_init;
  ro.cancel_check = cancel_check;
  ro.preempt_check = preempt_check;
  ro.resume = std::move(resume);
  return runner.run(task.net, task.input, ro);
}

std::optional<InferenceResult> InferenceServer::execute_request(Task& task) {
  InferenceResult out;
  out.request_id = task.id;
  out.tag = task.options.tag;
  out.chip = opts_.name;
  out.modelled_seconds = task.options.modelled_seconds;
  out.resumed = task.checkpoint != nullptr;
  // The layers a previous attempt already banked; credit for this
  // attempt's preemption counts only layers beyond them.
  const std::size_t banked =
      task.checkpoint ? task.checkpoint->layers.size() : 0;

  chain::AcceleratorConfig cfg = opts_.accelerator;
  cfg.arena = arena_;
  if (task.options.array) cfg.array = *task.options.array;
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
  // `yielding` until its checkpoint is re-enqueued.
  std::function<bool()> preempt_check;
  if (opts_.enable_preemption)
    preempt_check = [this, pri = task.options.priority] {
      MutexLock lock(state_->mu);
      // Fast path: the heap front is the highest-priority waiter, so a
      // front at or below this tier means nothing could preempt.
      if (state_->queue.empty() ||
          state_->queue.front().options.priority <= pri)
        return false;
      // Count only *live* higher-tier waiters: a queued request whose
      // cancel token is already set or whose deadline has already passed
      // resolves at pickup without touching the chip, so checkpointing a
      // healthy run to make room for it would be pure wasted work.
      const auto now = Clock::now();
      std::int64_t higher = 0;
      for (const Task& queued : state_->queue) {
        if (queued.options.priority <= pri) continue;
        if (queued.options.cancel &&
            queued.options.cancel->load(std::memory_order_relaxed))
          continue;
        if (queued.deadline && now > *queued.deadline) continue;
        ++higher;
      }
      if (higher <= state_->yielding) return false;
      ++state_->yielding;
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
    // slot here — before the user-supplied hook below runs — so a
    // throwing preemption_hook cannot leak the counter and silently
    // disable preemption for the rest of the server's life.
    {
      MutexLock lock(state_->mu);
      --state_->yielding;
    }
    // This attempt's execution time must survive the re-enqueue, or the
    // final result's wall_ms would only cover the last attempt.
    task.wall_ms_accum += ms_between(t0, Clock::now());
    // Bank the checkpoint on the task and retire the modelled seconds of
    // the layers this attempt newly completed — capped so cumulative
    // credit never exceeds what the router charged at dispatch (a later
    // completion or cancellation retires exactly the remainder, so the
    // request is never double-retracted).
    const std::shared_ptr<chain::RunCheckpoint>& cp = preempted.checkpoint();
    double newly = 0.0;
    for (std::size_t i = banked; i < cp->layers.size(); ++i)
      newly += cp->layers[i].run.seconds();
    const double headroom = std::max(
        0.0, task.options.modelled_seconds - task.modelled_retired);
    const double retired = std::min(newly, headroom);
    task.modelled_retired += retired;
    task.checkpoint = cp;
    ++task.preempt_count;
    if (opts_.preemption_hook) opts_.preemption_hook(task.id, retired);
    // Journal the banked prefix (after the backlog credit, so a replay
    // from this checkpoint observes the same accounting order).
    if (opts_.checkpoint_hook && task.options.tag != 0)
      opts_.checkpoint_hook(task.options.tag, *cp);
    return std::nullopt;
  }
  out.preemptions = task.preempt_count;
  out.modelled_seconds_retired = task.modelled_retired;
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

void InferenceServer::drain_loop() {
  MutexLock lock(state_->mu);
  for (;;) {
    if (state_->queue.empty()) {
      // Retire. The decrement happens in the same critical section that
      // observed the queue empty, so an enqueue can never race a drain
      // out of existence: it either sees the task-less queue before the
      // push (and the push's spawn loop schedules afresh against the
      // decremented count) or the still-counted drain picks its task up
      // on the next iteration. The idle signal is for the destructor,
      // which waits for the drain count to hit zero before releasing
      // the server state a drain dereferences.
      --state_->scheduled_drains;
      state_->idle.notify_all();
      return;
    }
    std::pop_heap(state_->queue.begin(), state_->queue.end(),
                  Task::scheduled_after);
    Task task = std::move(state_->queue.back());
    state_->queue.pop_back();
    ++state_->in_flight;
    lock.Unlock();
    state_->space_ready.notify_one();

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
      result.tag = task.options.tag;
      result.chip = opts_.name;
      result.modelled_seconds = task.options.modelled_seconds;
      result.modelled_seconds_retired = task.modelled_retired;
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
      if (is_resume) ++state_->stats.resumes;
      // Give the checkpointed request its queue slot back (bypassing
      // backpressure — a drain cannot block on its own submit gate).
      ++state_->stats.preemptions;
      // Restart the queue clock: queue_ms on the final attempt measures
      // the wait since this re-enqueue, not the request's own earlier
      // execution time (which wall_ms_accum already carries).
      task.enqueued = Clock::now();
      state_->queue.push_back(std::move(task));
      std::push_heap(state_->queue.begin(), state_->queue.end(),
                     Task::scheduled_after);
      state_->stats.peak_queue_depth =
          std::max(state_->stats.peak_queue_depth,
                   static_cast<std::int64_t>(state_->queue.size()));
      --state_->in_flight;
      // The queue just grew: top drains back up to the cap (this drain
      // continues — by now it may pick up the urgent request itself).
      const std::int64_t demand =
          static_cast<std::int64_t>(state_->queue.size()) +
          state_->in_flight;
      while (state_->scheduled_drains <
             std::min(opts_.num_threads, demand)) {
        ++state_->scheduled_drains;
        common::WorkPool::shared().submit_blocking([this] { drain_loop(); });
      }
      continue;
    }
    // The hook runs *before* the promise resolves, so by the time a
    // caller observes the result the routed backlog has already been
    // retired (and test observers have recorded the completion). It runs
    // before the counters too: a hook that throws fails its request.
    if (opts_.completion_hook) {
      try {
        if (error) {
          // The promise carries the error; the hook still needs the id
          // and routed accounting to retire the request.
          InferenceResult failed;
          failed.request_id = task.id;
          failed.tag = task.options.tag;
          failed.chip = opts_.name;
          failed.modelled_seconds = task.options.modelled_seconds;
          failed.modelled_seconds_retired = task.modelled_retired;
          failed.status = RequestStatus::kFailed;
          opts_.completion_hook(failed);
        } else {
          opts_.completion_hook(result);
        }
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    lock.Lock();
    if (is_resume) ++state_->stats.resumes;
    if (error) {
      ++state_->stats.failed;
    } else if (result.status == RequestStatus::kCancelled) {
      ++state_->stats.cancelled;
      if (result.deadline_expired) ++state_->stats.deadline_expired;
    } else {
      ++state_->stats.completed;
      if (result.exec_mode == chain::ExecMode::kAnalytical)
        ++state_->stats.analytical_runs;
      else
        ++state_->stats.cycle_accurate_runs;
      if (result.deadline_missed) ++state_->stats.deadline_misses;
      if (result.fidelity.sampled) {
        ++state_->stats.fidelity_samples;
        if (result.fidelity.diverged) ++state_->stats.fidelity_divergences;
      }
    }
    lock.Unlock();
    // Fulfill outside the lock: future continuations must not run under
    // the server mutex.
    if (error) {
      task.promise.set_exception(error);
    } else {
      task.promise.set_value(std::move(result));
    }
    // The request only stops counting as in-flight once its hook has run
    // and its future resolved, so wait_idle() => every hook has fired
    // (the Fleet relies on this to read fully-retired backlogs).
    lock.Lock();
    --state_->in_flight;
    if (state_->queue.empty() && state_->in_flight == 0)
      state_->idle.notify_all();
  }
}

}  // namespace chainnn::serve
