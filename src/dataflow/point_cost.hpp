// Tensor-free point costing — the closed-form fast path the design-space
// search evaluates millions of points with.
//
// The executed path (ChainAccelerator → NetworkRunner → SweepDriver)
// computes per-layer cycles from dataflow::layer_cycles, then *also*
// allocates tensors and streams them through an engine — none of which
// changes the rolled-up cycles/seconds/energy figures.
// estimate_point_cost() keeps only the arithmetic:
//
//   cycles_l  = layer_cycles(plan, array).total(batch)
//   seconds_l = cycles_l / clock_hz
//   energy_l  = power(rates_from_plan(plan)).total() * seconds_l
//   area      = AreaModel logic + on-chip SRAM gates
//
// These are the *same* expressions (same operations, same order) the
// executed rollup evaluates, so on any point both paths can execute the
// agreement is exact for cycles and bit-tight for the double figures —
// tests/dataflow/test_point_cost.cpp pins the cross-check against
// executed SweepDriver rollups on the default sweep grid.
//
// Per-point cost is a handful of multiply-adds per layer once the plans
// exist; serve::DesignSearch caches the per-layer LayerCostModel across
// the clock and channel-mode axes (neither enters the plan key) to keep
// it that way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/array_shape.hpp"
#include "dataflow/plan.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "mem/hierarchy.hpp"
#include "nn/conv_params.hpp"

namespace chainnn::dataflow {

// The per-layer invariants of the tensor-free cost path: everything a
// point's cycles/energy need that does not depend on clock frequency or
// batch size. Derived once per (layer, chain structure, channel mode)
// and reused across every point sharing them.
struct LayerCostModel {
  LayerCycles cycles;
  energy::ActivityRates rates;  // per-cycle, clock-free
};

// Costs a plan whose `array` field is the array the point actually runs
// (plan_layer and PlanCache::plan_for both stamp the caller's array, so
// plans from either are safe here; a shared_plan_for entry is not — its
// stored array may differ in dual_channel, which rates_from_plan reads).
[[nodiscard]] LayerCostModel layer_cost_model(const ExecutionPlan& plan);

struct PointCost {
  bool feasible = true;
  std::string infeasible_reason;  // first unmappable layer, when any
  std::int64_t total_cycles = 0;  // whole batch, all layers
  double seconds = 0.0;
  double energy_j = 0.0;
  double area_gates = 0.0;  // logic + on-chip SRAM gate equivalents

  // Strict Pareto dominance: `b` is worse than *this on every objective.
  // (Ties on any axis mean neither dominates, so e.g. clock variants —
  // identical cycles and area — never eliminate each other.)
  [[nodiscard]] bool dominates(const PointCost& b) const {
    return feasible && b.feasible && total_cycles < b.total_cycles &&
           energy_j < b.energy_j && area_gates < b.area_gates;
  }
};

// Accumulates the per-layer models into a point cost at `clock_hz` on
// `num_pes` PEs, mirroring the executed rollup term for term. The area
// figure is passed through verbatim (it is a property of the point, not
// of the layers).
[[nodiscard]] PointCost accumulate_point_cost(
    const std::vector<const LayerCostModel*>& layers, double clock_hz,
    std::int64_t num_pes, std::int64_t batch,
    const energy::EnergyModel& energy, double area_gates);

// On-chip SRAM bytes of a design point: iMemory + oMemory capacities
// plus the kernel register files, which track the chain
// (num_pes x kmem_words_per_pe x word_bytes — 295KB for the paper's
// 576 x 256 x 2B, matching HierarchyConfig::kmemory_bytes).
[[nodiscard]] std::uint64_t point_sram_bytes(
    const ArrayShape& array, const mem::HierarchyConfig& memory);

struct PointCostOptions {
  std::int64_t batch = 1;
  energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  energy::AreaModel area;
};

// Closed-form cost of running `layers` (already resolved to the H/W they
// execute at — serve::resolve_network_layers) on (array, memory).
// Unmappable layers (kernel taps exceeding the chain, partials
// overflowing oMemory) yield feasible == false instead of throwing.
[[nodiscard]] PointCost estimate_point_cost(
    const std::vector<nn::ConvLayerParams>& layers, const ArrayShape& array,
    const mem::HierarchyConfig& memory, const PointCostOptions& options = {});

}  // namespace chainnn::dataflow
