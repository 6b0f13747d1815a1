// Fleet — multi-chip serving with deadline-aware, model-driven routing.
//
// A Fleet owns one InferenceServer per simulated chip (heterogeneous
// ArrayShapes — by default the 3-chip set of default_fleet_chips()) and
// a Router that places every submitted request on the chip with the
// earliest *modelled* finish time: the request's closed-form chain
// seconds on each chip (via the shared PlanCache) plus the chip's
// modelled backlog of already-routed work. All chips share one
// PlanCache, so a layer shape is planned once per (geometry, array)
// fleet-wide.
//
// Routing only chooses *where* a request runs; execution identity is
// untouched — the same request produces a bit-identical
// NetworkRunResult whether it is submitted to the fleet or run directly
// on the chosen chip's configuration (tests/serve/test_fleet.cpp pins
// this, with fidelity sampling cross-checking both engines on top).
//
// Priority, deadlines and cancellation are per-chip InferenceServer
// behaviour (see inference_server.hpp): the fleet forwards
// RequestOptions verbatim, and FleetStats aggregates the per-chip
// deadline-miss / cancellation accounting next to the routing counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/durable.hpp"
#include "serve/inference_server.hpp"
#include "serve/journal.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {

struct FleetOptions {
  // Chips of the fleet; empty selects default_fleet_chips(). Each chip's
  // server runs with the base accelerator config below, re-shaped to the
  // chip's array and memory.
  std::vector<ChipSpec> chips;
  chain::AcceleratorConfig accelerator = analytical_accelerator_config();
  energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  std::int64_t threads_per_chip = 1;
  std::int64_t max_queue_per_chip = 64;
  // Forwarded to every chip server (each samples its own Nth request).
  std::int64_t fidelity_sample_every_n = 0;
  // Preemptive scheduling on every chip server (see
  // ServerOptions::enable_preemption): a strictly-higher-priority
  // arrival checkpoints the running lower-tier request at its next layer
  // boundary. The fleet wires the per-chip preemption hooks so a
  // preempted request's completed layers are retired from the chip's
  // modelled backlog immediately ("resume-aware backlog accounting") and
  // the completion hook retires only the remainder.
  bool preemption = false;
  // Fleet-wide plan cache; nullptr creates a fleet-owned one.
  std::shared_ptr<PlanCache> plan_cache;
  // Base seed for generated inputs; each chip decorrelates it so two
  // chips never draw identical request inputs from equal local ids.
  std::uint64_t input_seed = 7;
  // Durable request journal (see serve/journal.hpp). When set, every
  // submit is assigned a fleet-wide tag and journaled (SUBMIT with the
  // routed chip and the concrete input tensor) before it reaches a chip
  // queue; every preemption journals its checkpoint; every outcome
  // journals a terminal record (COMPLETE / CANCEL / REJECT). A later
  // process can then Fleet::recover() the log: requests with a terminal
  // record are done, the rest are replayed — from their last journaled
  // checkpoint when one exists. nullptr = no journaling (zero overhead).
  std::shared_ptr<Journal> journal;
};

struct FleetChipStats {
  std::string name;
  ServerStats server;
  std::int64_t routed = 0;          // requests placed on this chip
  double backlog_seconds = 0.0;     // modelled work still queued/running
  double dispatched_seconds = 0.0;  // cumulative modelled busy time
};

struct FleetStats {
  std::vector<FleetChipStats> chips;
  // Sums over the chips.
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t deadline_expired = 0;  // cancelled because the deadline passed
  std::int64_t preemptions = 0;
  std::int64_t resumes = 0;
  std::int64_t fidelity_samples = 0;
  std::int64_t fidelity_divergences = 0;
  // Requests refused by admission control at submit (RequestOptions::
  // admission + deadline infeasible on every chip). Fleet-level: a
  // rejected request never reaches a chip server, so it appears in no
  // per-chip counter.
  std::int64_t rejected = 0;
  // Durability counters (all zero for a fleet without a journal).
  JournalStats journal;                     // the fleet journal's appends
  std::int64_t recovered_requests = 0;      // replayed by recover()
  // Recovered checkpoints resumed on a different chip than the one that
  // captured them (the original chip is gone from this fleet). The
  // resumed run re-plans the remaining layers for the new chip: ofmaps
  // stay value-identical, cycles are the new chip's.
  std::int64_t checkpoint_handoffs = 0;
  PlanCacheStats plan_cache;
  // Tensor-pool figures summed over the chips (each chip owns its own
  // arena; high_water_bytes sums the per-chip peaks, an upper bound on
  // the fleet's simultaneous peak).
  ArenaStats arena;

  // Deadlines not served in time, both ways a deadline can be lost:
  // completed-but-late plus cancelled-because-expired. The figure the
  // admission-control benchmark gate compares (admission on must never
  // increase it).
  [[nodiscard]] std::int64_t missed_deadlines() const {
    return deadline_misses + deadline_expired;
  }

  // Modelled makespan of everything dispatched so far: the busiest
  // chip's modelled busy time (chips run in parallel). The figure a
  // single chip would need is the *sum* of that chip's modelled seconds
  // over all requests — see Router::modelled_request_seconds.
  [[nodiscard]] double modelled_makespan_seconds() const;
};

// What Fleet::recover() did with a journal: the log's totals, the
// requests it replayed, and a future per replay so the caller can await
// (and check) every recovered result.
struct RecoveryReport {
  std::int64_t journal_submits = 0;   // SUBMIT records in the log
  std::int64_t journal_completed = 0; // terminal COMPLETE records
  std::int64_t journal_cancelled = 0; // terminal CANCEL records
  std::int64_t journal_rejected = 0;  // terminal REJECT records
  std::int64_t replayed = 0;          // in-flight requests resubmitted
  std::int64_t resumed_from_checkpoint = 0;  // replays with a checkpoint
  std::int64_t checkpoint_handoffs = 0;  // resumed on a different chip
  bool truncated_tail = false;   // the log ended in a torn record
  std::int64_t checksum_errors = 0;
  // One (tag, future) per replayed request, in original submission
  // order. Tags are the journaled ones, so results can be matched
  // against pre-crash expectations.
  std::vector<std::pair<std::uint64_t, std::future<InferenceResult>>> futures;
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Routes the request to the chip with the earliest modelled finish
  // time and enqueues it there (blocking on that chip's backpressure).
  // The resolved InferenceResult carries the chip's name and the
  // modelled seconds the router charged. With RequestOptions::admission
  // and a deadline_ms, a request infeasible on every chip is refused
  // instead: the future resolves immediately with
  // RequestStatus::kRejected (request never executes, nothing charged).
  [[nodiscard]] std::future<InferenceResult> submit(
      nn::NetworkModel net, Tensor<std::int16_t> input,
      RequestOptions options = {});
  // Convenience: deterministic random input of `batch` images (shaped by
  // the network's first layer), generated by the chosen chip's server.
  [[nodiscard]] std::future<InferenceResult> submit(
      const nn::NetworkModel& net, std::int64_t batch,
      RequestOptions options = {});

  // The decision submit(net, batch, options) would take right now,
  // without committing it (for tests and capacity planning).
  [[nodiscard]] RouteDecision plan_route(
      const nn::NetworkModel& net, std::int64_t batch,
      const RequestOptions& options = {}) const;

  // Replays a crashed fleet's journal into this one. Requests with a
  // terminal record are left alone; every other SUBMIT is resubmitted in
  // its original order — resuming from its last journaled checkpoint
  // when one exists. A replay is pinned to the chip that held it before
  // the crash (checkpoint chip first, routed chip otherwise) so a
  // same-topology recovery reproduces the pre-crash results bit for bit
  // (ofmaps AND cycles); when that chip is not part of this fleet the
  // request falls back to normal earliest-finish routing — for a
  // checkpointed request that is a cross-chip handoff (counted in
  // FleetStats::checkpoint_handoffs): remaining layers re-plan for the
  // new chip and the final ofmaps stay value-identical.
  //
  // If this fleet journals (FleetOptions::journal), replayed requests
  // are re-journaled under their original tags, so recovery is
  // idempotent: a second recovery from the new log finds every replay
  // either terminal or in-flight-with-checkpoint, never duplicated.
  // Throws JournalError on a missing/garbled journal (bad magic,
  // version mismatch); a torn tail or checksum failure is NOT an error —
  // the valid prefix recovers and the report flags the damage.
  [[nodiscard]] RecoveryReport recover(const std::string& journal_path);

  // Blocks until every chip drained its queue.
  void wait_idle();

  [[nodiscard]] FleetStats stats() const;
  [[nodiscard]] const std::vector<ChipSpec>& chips() const {
    return router_->chips();
  }
  [[nodiscard]] Router& router() { return *router_; }
  [[nodiscard]] const Router& router() const { return *router_; }
  [[nodiscard]] const std::shared_ptr<PlanCache>& plan_cache() const {
    return cache_;
  }

 private:
  // Shared admission/rejection bookkeeping for both submit overloads.
  [[nodiscard]] std::optional<std::future<InferenceResult>> try_reject(
      const RouteDecision& decision, std::uint64_t tag);
  // Claims the request's fleet-wide tag (when journaling and not already
  // assigned by recovery) and appends its SUBMIT record — and, for a
  // refused admission, the REJECT record — to the journal. No-op without
  // a journal.
  void journal_submit(const RouteDecision& decision,
                      const nn::NetworkModel& net,
                      const Tensor<std::int16_t>& input,
                      RequestOptions& options);
  // The tail of every explicit-input submit, after `decision` was
  // routed (and, if admitted, dispatched): journals the request, then
  // resolves a refused admission or enqueues on the decided chip. Any
  // throw — a failed journal append included — retracts the dispatch
  // and closes an already-journaled SUBMIT with a kFailed CANCEL.
  [[nodiscard]] std::future<InferenceResult> journal_and_enqueue(
      const RouteDecision& decision, nn::NetworkModel net,
      Tensor<std::int16_t> input, RequestOptions options);

  // Concurrency contract: Fleet itself holds no mutex. Every mutable
  // member is either written once in the constructor and read-only
  // afterwards (opts_, cache_, router_, servers_ — the pointers, not the
  // pointees, which synchronize internally; see Router and
  // InferenceServer), or a lone atomic counter (rejected_). That is why
  // nothing here is CHAINNN_GUARDED_BY anything — there is no capability
  // to name, and the thread-safety analysis has nothing to check.
  FleetOptions opts_;
  std::shared_ptr<PlanCache> cache_;
  std::atomic<std::int64_t> rejected_{0};
  // Fleet-wide durable tags (monotone from 1; recover() bumps it past
  // the journaled maximum so post-recovery submits never collide).
  std::atomic<std::uint64_t> next_tag_{0};
  std::atomic<std::int64_t> recovered_{0};
  std::atomic<std::int64_t> handoffs_{0};
  // Destruction order matters: the chip servers' worker threads call the
  // router from their completion and preemption hooks, so router_ must
  // outlive servers_ (members are destroyed in reverse declaration
  // order).
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<InferenceServer>> servers_;
};

// --- fleet-vs-single-chip trace evaluation ---------------------------------
//
// bench_micro --fleet and examples/fleet_demo both push a request trace
// through a fleet and compare its modelled makespan against each chip
// serving the whole trace alone; this shared rollup keeps the two
// front-ends from drifting apart on the comparison semantics.

struct FleetTraceEntry {
  const nn::NetworkModel* net = nullptr;
  std::int64_t batch = 1;
  RequestOptions options;
};

struct FleetTraceReport {
  std::int64_t completed = 0;  // requests that resolved kOk
  // Per chip: modelled seconds of the trace work that actually executed
  // there, and what the chip would need to serve the same work alone.
  // Both sides cover exactly the completed requests — a cancelled or
  // failed entry is priced into neither, so it cannot tilt the speedup.
  std::vector<double> busy_seconds;
  std::vector<double> single_chip_seconds;
  double wall_seconds = 0.0;  // submit of first -> resolution of last

  // Modelled makespan of the routed trace: the busiest chip.
  [[nodiscard]] double fleet_makespan_seconds() const;
  [[nodiscard]] std::size_t best_single_chip() const;
  [[nodiscard]] double best_single_seconds() const;
  // best single chip / fleet makespan; > 1 means the fleet wins.
  [[nodiscard]] double modelled_speedup() const;
};

// Submits every entry through the fleet (batch overload — inputs are
// generated by the routed chip's server), waits for all futures, and
// rolls up the comparison. Cancelled/failed entries count toward neither
// `completed` nor either side's seconds.
[[nodiscard]] FleetTraceReport run_fleet_trace(
    Fleet& fleet, const std::vector<FleetTraceEntry>& trace);

}  // namespace chainnn::serve
