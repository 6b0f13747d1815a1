// DesignSearch — parallel Pareto design-space exploration with dominance
// pruning.
//
// SweepDriver *executes* a handful of hand-picked points; this subsystem
// instead treats the design space — chain length x clock x per-PE kernel
// words x oMemory capacity x per-layer channel mode — as a state-space
// search, the way the related multi-core reachability work (ltsmin)
// treats model states:
//
//   * points are canonical index tuples into a DesignSpaceGrid; a grid
//     move steps one axis index (or flips one layer's channel mode), so
//     exploration expands in waves from the paper's 576-PE / 700 MHz
//     seed, wave k holding the points k moves from it;
//   * one parent per point instead of a visited set: a point's parent is
//     the point with its first off-seed component (pes, clock, kmem,
//     omem, then the mode bits by layer) stepped one place back toward
//     the seed, so wave k+1 is exactly the children of wave k and each
//     point is generated once;
//   * per-point cost comes from the tensor-free closed forms
//     (dataflow::estimate_point_cost's accumulate path) over per-layer
//     LayerCostModels hash-consed per (chain, kmem, omem, mode) — the
//     clock axis and the batch never rebuild a plan;
//   * dominance pruning: a point strictly worse on cycles AND energy AND
//     area than a frontier member is dropped on evaluation — it is
//     counted, but never stored. Memory stays O(frontier + wave), not
//     O(points). Pruned points still have children, so the grid is
//     covered exhaustively and the frontier is exactly the Pareto-maximal
//     set of every evaluated point — which is what makes the oracle test
//     below possible;
//   * determinism: only the costing of a wave's points leaves the
//     calling thread, each point into its own slot, reading models
//     built before it starts. Everything else — building those models,
//     the frontier, the next wave and its canonical sort — runs on the
//     calling thread and lives in run()'s frame, so the result is
//     independent of worker count and a second run() repeats the first.
//     tests/serve/test_design_search.cpp pins 1-vs-N worker identity,
//     the membership of a truncated search's waves, and frontier
//     equality against an exhaustive-enumeration oracle.
//
// A parallel search costs each wave as one common::WorkPool::run_batch
// on the process-wide pool (helping semantics: the calling thread claims
// chunks too): the search owns no threads, and each wave starts and
// joins the helpers it runs on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/work_pool.hpp"
#include "dataflow/point_cost.hpp"
#include "nn/models.hpp"
#include "serve/plan_cache.hpp"

namespace chainnn::serve {

// The axes of the search. Every axis vector must be non-empty and
// strictly increasing; a grid move steps +-1 along an axis.
struct DesignSpaceGrid {
  std::vector<std::int64_t> num_pes;
  std::vector<double> clock_hz;
  std::vector<std::int64_t> kmem_words_per_pe;
  std::vector<std::uint64_t> omemory_bytes;
  // Explore per-layer single-vs-dual ifmap channel mode (Fig. 5(a) vs
  // (b)) as one boolean axis per layer. Off = every layer dual-channel.
  bool per_layer_channel_modes = true;

  // The release-CI grid around the paper's instantiation: 16 chain
  // lengths x 21 clocks x 4 kernel storages x 5 oMemory sizes (6720
  // configurations, x 2^layers channel modes), containing the paper's
  // 576 PEs / 700 MHz / 256 words / 25KB point.
  [[nodiscard]] static DesignSpaceGrid paper_default();

  [[nodiscard]] std::int64_t configurations() const {
    return static_cast<std::int64_t>(num_pes.size() * clock_hz.size() *
                                     kmem_words_per_pe.size() *
                                     omemory_bytes.size());
  }
};

// Canonical form of a point: axis indices plus the per-layer channel
// mask (bit i set = layer i streams dual-channel). Waves and results are
// sorted by it, and a max_points truncation keeps a wave's lowest ids.
struct DesignPointId {
  std::int32_t pes = 0, clock = 0, kmem = 0, omem = 0;
  std::uint64_t mode_mask = ~0ull;

  friend bool operator==(const DesignPointId&, const DesignPointId&) = default;
  friend auto operator<=>(const DesignPointId&, const DesignPointId&) = default;
};

// One evaluated point, expanded back to the configuration it denotes.
struct EvaluatedDesignPoint {
  DesignPointId id;
  std::string label;                     // "pes576-clk700-kw256-om25-m3f"
  dataflow::ArrayShape array;            // num_pes/clock/kmem stamped
  mem::HierarchyConfig memory;           // omemory stamped
  std::vector<std::uint8_t> layer_dual;  // per-layer channel mode
  dataflow::PointCost cost;

  // True when every layer streams the same mode — exactly the points an
  // executed SweepDriver re-run can reproduce (a chip's ArrayShape sets
  // dual_channel for every layer).
  [[nodiscard]] bool uniform_mode() const;
};

struct DesignSearchStats {
  std::int64_t evaluated = 0;   // costed points, each once
  std::int64_t infeasible = 0;  // some layer unmappable at the point
  std::int64_t pruned = 0;      // feasible but Pareto-dominated
  std::int64_t frontier = 0;
  std::int64_t waves = 0;
  double wall_seconds = 0.0;
  double points_per_sec = 0.0;
  bool contains_paper_point = false;  // 576@700/256w/25KB on the frontier
  [[nodiscard]] double pruned_fraction() const {
    return evaluated == 0
               ? 0.0
               : static_cast<double>(pruned) / static_cast<double>(evaluated);
  }
};

struct DesignSearchResult {
  // The Pareto-maximal evaluated points, sorted by canonical id.
  std::vector<EvaluatedDesignPoint> frontier;
  DesignSearchStats stats;
  // Every evaluated point (same order guarantees), only with
  // DesignSearchOptions::collect_evaluated — the oracle tests' hook.
  std::vector<EvaluatedDesignPoint> evaluated;
};

struct DesignSearchOptions {
  std::int64_t batch = 1;
  // Evaluation budget; the search stops expanding once reached (the
  // truncation is canonical-order, so still deterministic). <= 0 means
  // the whole reachable grid.
  std::int64_t max_points = 200000;
  // Exactly 1 runs the wave loop serially on the calling thread (the
  // oracle baseline). Any other value, the default 0 included, fans each
  // wave out over `pool`; the value itself is not a thread count (the
  // pool's batch cap bounds the threads a wave occupies).
  std::int64_t num_workers = 0;
  // Pool for parallel waves; nullptr uses WorkPool::shared().
  common::WorkPool* pool = nullptr;
  energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  energy::AreaModel area;
  std::vector<chain::InterLayerOp> inter_layer;
  // Plans resolve through this cache when given (shared with a serving
  // fleet or a SweepDriver re-execution); nullptr plans directly.
  std::shared_ptr<PlanCache> plan_cache;
  bool collect_evaluated = false;
};

class DesignSearch {
 public:
  DesignSearch(nn::NetworkModel network, DesignSpaceGrid grid,
               DesignSearchOptions options = {});

  // Expands the grid from the seed (the paper point when the grid
  // contains it, the axis midpoints otherwise) until exhaustion or
  // max_points. Deterministic: equal grids and options produce equal
  // results whatever the worker count, and every call returns the same.
  [[nodiscard]] DesignSearchResult run();

  [[nodiscard]] const nn::NetworkModel& network() const { return net_; }
  [[nodiscard]] const DesignSpaceGrid& grid() const { return grid_; }

 private:
  nn::NetworkModel net_;
  DesignSpaceGrid grid_;
  DesignSearchOptions opts_;
  std::vector<nn::ConvLayerParams> layers_;  // resolved at opts_.batch
};

}  // namespace chainnn::serve
