// InferenceServer — an async request scheduler over the Chain-NN
// execution stack: a Fleet of one chip (serve/fleet.hpp).
//
// submit(network, input | batch, options) returns a std::future. The
// request is priced at submit with the same closed form the fleet router
// uses (Chain-NN's fixed dataflow makes a run's chain time a function of
// layer geometry and array shape), then queued on the chip's executor.
// The chip owns num_threads worker threads, started with the server and
// joined by its destructor, which drain a bounded queue (submit blocks
// when the queue is full — backpressure, not drops). A worker parks
// while the queue is empty and wakes on a submit or on a preempted
// request's re-enqueue; a request may park its worker on a user hook for
// arbitrarily long without holding up another chip, as each chip's
// workers are its own. Every execution attempt runs a whole network
// through NetworkRunner on one accelerator of its own, built with the
// chip's PlanCache; all plan lookups of all workers resolve through that
// one shared cache, so a request only pays planning cost the first time
// its (layer, array) shape is seen by the process.
// Its tensors come from the heap unless the chip's config names an arena.
//
// Scheduling: the queue is a priority heap, not a FIFO. Higher
// RequestOptions::priority tiers always dequeue first; within a tier the
// order is earliest-deadline-first (requests without a deadline sort
// last), and ties fall back to submission order, so a server driven
// without priorities or deadlines is a FIFO.
// With ServerOptions::enable_preemption, higher tiers do not just
// overtake the queue — they evict the chip: a running lower-tier request
// is checkpointed at its next layer boundary (chain::RunCheckpoint),
// re-enqueued, and resumed later with a bit-identical final result.
//
// Deadlines and cancellation: RequestOptions::deadline_ms is a wall
// budget from submission. A request whose deadline has already passed
// when a worker picks it up — including a deadline in the past at
// submit — is not executed; mid-run, the deadline (and the optional
// RequestOptions::cancel token) is polled at NetworkRunner's inter-layer
// checkpoints and the run aborts at the next one. Either way the future
// resolves normally with RequestStatus::kCancelled (never an exception),
// and the cancellation is counted in ServerStats. A request that runs to
// completion past its deadline stays kOk but is flagged deadline_missed
// and counted in ServerStats::deadline_misses. With
// RequestOptions::admission, a deadline the modelled chain time already
// misses is refused at submit instead (RequestStatus::kRejected).
//
// Per-request engine: capacity-planning requests run on the analytical
// fast path, fidelity-sensitive ones cycle-accurately, in one process.
// The chip is not a per-request knob: every request runs on the array
// and memory of the chip it is placed on (a server is one chip), so the
// plan cache holds at most one plan per (layer shape, chip).
//
// Fidelity sampling: with ServerOptions::fidelity_sample_every_n = N,
// every Nth request is re-executed on the *other* engine (analytical ↔
// cycle-accurate) and the two runs are cross-checked — ofmaps, cycles,
// per-level traffic, per-layer power and the whole-run traffic/energy
// rollups must be bit-identical (the two engines' equivalence
// guarantee, continuously monitored in production traffic).
// Divergences are recorded in ServerStats and flagged on the result.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "energy/energy_model.hpp"
#include "nn/models.hpp"
#include "serve/plan_cache.hpp"

namespace chainnn::serve {

// True when two network runs agree on every figure the engines must
// reproduce identically: per-layer ofmaps and narrowing stats (which
// stand in for the accumulators a run no longer keeps), total cycles,
// per-level traffic, per-layer power, the final activations, and the
// whole-run energy/seconds rollups. `why`, if given, receives a
// description of the first mismatch.
[[nodiscard]] bool network_runs_identical(const chain::NetworkRunResult& a,
                                          const chain::NetworkRunResult& b,
                                          std::string* why = nullptr);

// Terminal state of a request. Futures only ever resolve with kOk,
// kCancelled or kRejected; a request that threw resolves its future with
// the exception instead (counted in ServerStats::failed), so no future
// ever carries kFailed.
enum class RequestStatus {
  kOk,         // ran to completion
  kCancelled,  // deadline passed or cancel token set before/mid-run
  kRejected,   // admission control refused it at submit; the request
               // never reached a chip queue or executed
  kFailed,     // request threw (never a future's value; see above)
};

struct RequestOptions {
  // Engine for this request; nullopt uses the server accelerator's mode.
  std::optional<chain::ExecMode> exec_mode;
  // Scheduling tier: higher values always dequeue before lower ones.
  std::int32_t priority = 0;
  // Wall-clock budget in milliseconds from submission; nullopt = none.
  // Doubles as the EDF key within a priority tier. May be zero or
  // negative (a deadline already in the past): such a request resolves
  // kCancelled without executing. A budget too large for the clock
  // never expires; NaN is refused at submit.
  std::optional<double> deadline_ms;
  // External cancellation: set to true at any time to abort the request
  // at its next inter-layer checkpoint (or before it starts).
  std::shared_ptr<std::atomic<bool>> cancel;
  // Deadline-feasibility admission control (opt-in; a standalone
  // server is a one-chip fleet and honours it too). With admission set
  // and a deadline_ms given, a request whose modelled finish time
  // (backlog + closed-form chain seconds,
  // serve::RouteDecision::finish_seconds) exceeds the deadline on
  // *every* chip is refused at submit: its future resolves immediately
  // with RequestStatus::kRejected, nothing is charged to any backlog,
  // and the request never executes.
  bool admission = false;
  std::vector<chain::InterLayerOp> inter_layer;
  std::function<void(std::int64_t, Tensor<std::int16_t>&)> weight_init;
};

struct FidelityReport {
  bool sampled = false;   // this request was re-run on the other engine
  bool diverged = false;  // cross-check failed (counted in ServerStats)
  std::string detail;     // first mismatch, empty when clean
};

struct InferenceResult {
  // Per-chip submission id (from 1; fidelity sampling keys on it).
  std::int64_t request_id = 0;
  // Fleet-wide id, assigned at submit (never 0). Unlike request_id it is
  // unique across chips, and a journaled fleet's recovery keeps it across
  // restarts, so journal records written before a crash still identify
  // requests replayed after it. submit(net, batch) draws the request's
  // input from it.
  std::uint64_t tag = 0;
  RequestStatus status = RequestStatus::kOk;
  chain::ExecMode exec_mode = chain::ExecMode::kAnalytical;
  chain::NetworkRunResult run;  // empty when status == kCancelled
  FidelityReport fidelity;
  // Conv layers fully executed before a mid-run cancellation stopped the
  // request (equals the network size for kOk results; includes layers
  // preserved in a checkpoint for a request cancelled while preempted).
  std::int64_t completed_layers = 0;
  bool deadline_missed = false;  // completed, but after its deadline
  // kCancelled because the deadline passed (as opposed to the cancel
  // token); counted separately in ServerStats::deadline_expired.
  bool deadline_expired = false;
  // Times this request was checkpointed at a layer boundary to yield the
  // worker to a strictly-higher-priority request.
  std::int64_t preemptions = 0;
  // The terminal execution attempt resumed from a checkpoint.
  bool resumed = false;
  std::string chip;  // ServerOptions::name of the executing chip
  // The closed-form chain seconds charged to the chip's backlog at
  // submit (serve::RouteDecision::request_seconds).
  double modelled_seconds = 0.0;
  // Wait before the terminal attempt started: submit -> execution start,
  // or for a preempted request (re-)enqueue -> resume start.
  double queue_ms = 0.0;
  // Execution wall time across every attempt (excludes queueing).
  double wall_ms = 0.0;
};

struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;  // kOk resolutions
  std::int64_t failed = 0;  // request threw (promise carries the error)
  std::int64_t cancelled = 0;        // kCancelled resolutions
  std::int64_t deadline_misses = 0;  // completed after their deadline
  // Subset of `cancelled` whose cancellation was deadline-caused (the
  // "missed deadline" figure alongside deadline_misses: one counts runs
  // that finished late, the other runs that never finished in time).
  std::int64_t deadline_expired = 0;
  // Times a running request was checkpointed at a layer boundary to
  // yield to a strictly-higher-priority request, and times a checkpointed
  // request was picked back up. resumes <= preemptions always; they are
  // equal once every preempted request has resumed and completed (a
  // request cancelled while checkpointed is a preemption that never
  // resumes).
  std::int64_t preemptions = 0;
  std::int64_t resumes = 0;
  std::int64_t analytical_runs = 0;
  std::int64_t cycle_accurate_runs = 0;
  std::int64_t fidelity_samples = 0;
  std::int64_t fidelity_divergences = 0;
  std::int64_t peak_queue_depth = 0;
  PlanCacheStats plan_cache;
  // Always zero: a chip keeps no tensor pool of its own (see
  // ServerOptions::accelerator). Kept so that readers of the field build.
  ArenaStats arena;

  // Adds another chip's counters: a fleet's totals are this sum over its
  // chips (a summed peak_queue_depth bounds the simultaneous peak from
  // above). plan_cache is left alone — chips share one cache, so its
  // figures do not add up.
  ServerStats& operator+=(const ServerStats& chip);
};

// The paper-default accelerator with the analytical engine selected —
// the sensible base config for a serving process (cycle-accurate runs
// are opt-in per request or arrive via fidelity sampling).
[[nodiscard]] inline chain::AcceleratorConfig analytical_accelerator_config() {
  chain::AcceleratorConfig cfg;
  cfg.exec_mode = chain::ExecMode::kAnalytical;
  return cfg;
}

struct ServerOptions {
  // The chip: its array and memory are what every request runs on and is
  // priced against. Requests may override exec_mode only. A chip's
  // tensors come from the heap unless the config names an arena.
  chain::AcceleratorConfig accelerator = analytical_accelerator_config();
  energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  // Name stamped on every InferenceResult::chip — lets fleet members be
  // told apart downstream. Empty for a standalone server.
  std::string name;
  // Worker threads the chip owns for its whole life: the most requests
  // it runs at once.
  std::int64_t num_threads = 2;
  std::int64_t max_queue = 64;  // submit() blocks while this many queued
  // Re-run every Nth request (by submission id) on the other engine and
  // cross-check. 0 disables sampling.
  std::int64_t fidelity_sample_every_n = 0;
  // Shared plan cache; nullptr creates a server-owned one.
  std::shared_ptr<PlanCache> plan_cache;
  // Preemptive scheduling: when a strictly-higher-priority request is
  // queued while a lower-tier request runs, the worker checkpoints the
  // running request at its next inter-layer boundary (RunCheckpoint),
  // re-enqueues it — original id, priority and deadline, so it keeps its
  // place among tier peers — and picks up the urgent request. The
  // re-enqueued request later resumes from the checkpoint; a resumed
  // run's result is bit-identical to an uninterrupted one (ofmaps,
  // cycles, traffic — pinned by tests/serve/test_sched_properties.cpp).
  // Off by default. Re-enqueueing a checkpoint may transiently exceed
  // max_queue (a worker cannot block on its own backpressure).
  bool enable_preemption = false;
  // TEST HOOK: mutates the fidelity replay before the cross-check, so
  // tests can prove an injected divergence is caught and counted.
  std::function<void(std::int64_t request_id, chain::NetworkRunResult&)>
      fidelity_mutator_for_test;
};

class Fleet;

class InferenceServer {
 public:
  explicit InferenceServer(ServerOptions options = {});
  // Pending requests still execute: the workers run the queue empty,
  // then are joined before the server state is released.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Prices the request (an unplannable network throws the planner's
  // std::logic_error here, before anything is queued or counted), then
  // enqueues it; blocks while the queue is full. The future resolves
  // when a worker finishes the run (or rethrows its error).
  [[nodiscard]] std::future<InferenceResult> submit(nn::NetworkModel net,
                                                    Tensor<std::int16_t> input,
                                                    RequestOptions options = {});
  // Convenience: a deterministic random input of `batch` images shaped
  // for the network's first layer, drawn from seed 7 and the request's
  // tag (see FleetOptions::input_seed).
  [[nodiscard]] std::future<InferenceResult> submit(
      const nn::NetworkModel& net, std::int64_t batch,
      RequestOptions options = {});

  // Blocks until every submitted request has completed.
  void wait_idle();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const std::shared_ptr<PlanCache>& plan_cache() const;
  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  ServerOptions opts_;
  std::unique_ptr<Fleet> fleet_;
};

}  // namespace chainnn::serve
