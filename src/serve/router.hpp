// Router — deadline-aware, model-driven request placement.
//
// Chain-NN's fixed dataflow makes a layer's latency a *closed form* of
// (layer geometry, array shape) — dataflow::layer_cycles over a cached
// ExecutionPlan. The router exploits that: instead of guessing from load
// averages, it computes the modelled chain seconds a request will take
// on every chip of a heterogeneous fleet (plans fetched by PlanKey
// through the shared serve::PlanCache, so sizing is a hash lookup after
// the first sighting of a shape), adds the chip's current modelled
// backlog, and picks the earliest finish time. The estimate equals the
// executed cycles on both engines (tests/serve/test_router.cpp), so
// routing quality degrades only through host-side effects (queueing
// granularity, worker scheduling), not through model error.
//
// Every estimate is for a chip's own array and memory: the chips are the
// only arrays a request can run on, so the shared cache holds at most one
// plan per (layer shape, chip) however many clients the fleet serves.
//
// The router is execution-agnostic: it never runs anything. Fleet calls
// route()/dispatch() at submission, and each chip's executor calls
// complete() when a request is preempted (the banked layers) and when it
// ends (the rest), keeping per-chip backlogs in modelled seconds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/thread_annotations.hpp"
#include "mem/hierarchy.hpp"
#include "nn/models.hpp"
#include "serve/plan_cache.hpp"

namespace chainnn::serve {

// One simulated accelerator of a fleet.
struct ChipSpec {
  std::string name;
  dataflow::ArrayShape array;
  mem::HierarchyConfig memory;
};

// The standard 3-chip heterogeneous fleet: the paper's 576-PE chip plus
// a half-length higher-clocked chip and a double-length lower-clocked
// one, with SRAM capacities scaled to the chain length. No chip
// dominates the others across all layer shapes, so earliest-finish
// routing has real work to do.
[[nodiscard]] std::vector<ChipSpec> default_fleet_chips();

// The conv layers of `net` as NetworkRunner will actually execute them
// for a {batch, C0, in_height, in_width} input: per-layer H/W resolved
// from the flowing activations (pooling in `inter_layer` shrinks the
// next layer's input, exactly as in NetworkRunner::run). Refuses a
// layer whose in_channels differ from the previous layer's out_channels,
// which NetworkRunner would refuse mid-run.
[[nodiscard]] std::vector<nn::ConvLayerParams> resolve_network_layers(
    const nn::NetworkModel& net, std::int64_t batch, std::int64_t in_height,
    std::int64_t in_width, const std::vector<chain::InterLayerOp>& inter_layer);

struct RouteDecision {
  std::size_t chip = 0;
  std::string chip_name;
  // Modelled chain seconds this request needs on the chosen chip.
  double request_seconds = 0.0;
  // Modelled seconds of work already routed to (and not yet completed
  // by) the chosen chip when the decision was taken.
  double backlog_seconds = 0.0;
  [[nodiscard]] double finish_seconds() const {
    return backlog_seconds + request_seconds;
  }
  std::int64_t request_cycles = 0;  // at the chosen chip's clock
  // Admission verdict: false when an admission deadline was given and
  // even the earliest-finish chip cannot make it (the fields above then
  // describe that infeasible-but-best chip; nothing was charged to any
  // backlog). Always true when no admission deadline was asked for.
  bool admitted = true;
};

class Router {
 public:
  // Results, /metrics and recovery name a chip by ChipSpec::name, so two
  // chips with one name are refused.
  Router(std::vector<ChipSpec> chips, std::shared_ptr<PlanCache> cache);

  [[nodiscard]] const std::vector<ChipSpec>& chips() const { return chips_; }

  // Modelled chain cycles of `batch` images of `net` on chip `chip`:
  // the total_cycles() a NetworkRunner run on that chip records.
  [[nodiscard]] std::int64_t modelled_request_cycles(
      std::size_t chip, const nn::NetworkModel& net, std::int64_t batch,
      std::int64_t in_height, std::int64_t in_width,
      const std::vector<chain::InterLayerOp>& inter_layer) const;
  [[nodiscard]] double modelled_request_seconds(
      std::size_t chip, const nn::NetworkModel& net, std::int64_t batch,
      std::int64_t in_height, std::int64_t in_width,
      const std::vector<chain::InterLayerOp>& inter_layer) const;

  // Earliest-finish-time placement over the current backlogs. Pure: the
  // backlog is only charged when the caller commits with dispatch().
  [[nodiscard]] RouteDecision route(
      const nn::NetworkModel& net, std::int64_t batch,
      std::int64_t in_height, std::int64_t in_width,
      const std::vector<chain::InterLayerOp>& inter_layer) const;

  // route() + dispatch() under one lock hold: concurrent submitters each
  // see the backlog the previous decision committed, so two simultaneous
  // requests cannot both pick the same chip off a stale snapshot (the
  // cycle estimation itself still runs outside the lock). This is what
  // Fleet::submit uses.
  //
  // `admission_deadline_s`, when set, turns the call into admission
  // control: the earliest-finish chip is still chosen, but if even its
  // modelled finish (RouteDecision::finish_seconds) exceeds the deadline
  // — and earliest-finish minimizes that figure, so every other chip is
  // worse — the decision comes back with admitted == false and NOTHING
  // is dispatched: no backlog charge, no routed count, nothing to
  // retract.
  [[nodiscard]] RouteDecision route_and_dispatch(
      const nn::NetworkModel& net, std::int64_t batch,
      std::int64_t in_height, std::int64_t in_width,
      const std::vector<chain::InterLayerOp>& inter_layer,
      const std::optional<double>& admission_deadline_s = {});

  // Commits a decision: charges its modelled seconds to the chip's
  // backlog and counts the dispatch.
  void dispatch(const RouteDecision& decision);
  // Reverses a committed decision whose request never reached a chip
  // queue (the enqueue threw after routing): backlog, cumulative
  // dispatched seconds and the routed count all give the seconds back,
  // so a failed submit cannot permanently skew placement.
  void retract(const RouteDecision& decision);
  // Retires `request_seconds` of backlog from `chip` (the chip executor,
  // at a preemption and at the request's end).
  void complete(std::size_t chip, double request_seconds);

  [[nodiscard]] std::vector<double> backlog_seconds() const;
  [[nodiscard]] std::vector<std::int64_t> routed_counts() const;
  // Cumulative modelled seconds ever dispatched per chip — the fleet's
  // modelled busy time, from which a trace's modelled makespan follows.
  [[nodiscard]] std::vector<double> dispatched_seconds() const;

 private:
  // Per-chip request seconds (and total cycles), estimated without
  // touching the backlogs; requires no lock.
  struct Estimates {
    std::vector<std::int64_t> cycles;
    std::vector<double> seconds;
  };
  [[nodiscard]] Estimates estimate_all(
      const nn::NetworkModel& net, std::int64_t batch,
      std::int64_t in_height, std::int64_t in_width,
      const std::vector<chain::InterLayerOp>& inter_layer) const;
  // Cycle cost of already-resolved layers on one chip; requires no lock.
  [[nodiscard]] std::int64_t cycles_for_resolved(
      std::size_t chip, const std::vector<nn::ConvLayerParams>& layers,
      std::int64_t batch) const;
  // Picks the earliest finish over backlog_.
  [[nodiscard]] RouteDecision pick_locked(const Estimates& est) const
      CHAINNN_REQUIRES(mu_);

  std::vector<ChipSpec> chips_;
  std::shared_ptr<PlanCache> cache_;
  mutable Mutex mu_;
  std::vector<double> backlog_ CHAINNN_GUARDED_BY(mu_);
  std::vector<double> dispatched_ CHAINNN_GUARDED_BY(mu_);
  std::vector<std::int64_t> routed_ CHAINNN_GUARDED_BY(mu_);
};

}  // namespace chainnn::serve
