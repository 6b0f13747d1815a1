// SweepDriver — executed design-space exploration.
//
// The closed-form tables of examples/design_space.cpp rank design points
// by the plan's analytic cycle counts alone. Following the whole-life /
// full-network evaluation methodology of the related accelerator-DSE
// literature, this driver instead *executes* the workload network end to
// end at every design point. A design point is a chip (ChipSpec: array
// and memory), and each one runs as the only chip of its own
// InferenceServer, one point after another, so
//
//   * ofmaps are actually computed (and optionally fidelity-sampled
//     cycle-accurately) rather than assumed;
//   * per-point latency / energy roll up from per-layer executed runs;
//   * one PlanCache spans all the points' servers — points differing
//     only in clock frequency share every plan, and repeated layer shapes
//     hit across the whole sweep (plan_cache()->stats() shows what it
//     saved). A server prices its point at submit, so a point's first
//     lookup of a shape plans it and its execution then hits; a point the
//     planner cannot map throws from run().
//
// The cache is semantics-free: a sweep with a shared cache produces
// per-point cycles/energy identical to a cold-cache sweep
// (tests/serve/test_sweep_driver.cpp pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/models.hpp"
#include "serve/inference_server.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {

struct SweepPointResult {
  ChipSpec point;
  chain::NetworkRunResult run;  // the executed network at this point

  // Rolled-up executed figures (whole batch / per image at the point's
  // clock).
  std::int64_t total_cycles = 0;
  double seconds = 0.0;
  double energy_j = 0.0;
  double fps = 0.0;

  bool fidelity_sampled = false;
  bool fidelity_diverged = false;
  // Host wall time *executing* this point, stamped server-side around
  // the execution attempts only (InferenceResult::wall_ms). Queue wait —
  // time between submission and pickup, which belongs to scheduling, not
  // to the point — is reported separately, never folded into wall_ms
  // (tests/serve/test_sweep_driver.cpp pins the split).
  double wall_ms = 0.0;
  double queue_ms = 0.0;
};

struct SweepOptions {
  chain::ExecMode exec_mode = chain::ExecMode::kAnalytical;
  std::int64_t batch = 1;
  // Point i (counting from 0) is re-run on the other engine and
  // cross-checked when (i + 1) % n == 0; 0 disables sampling.
  std::int64_t fidelity_sample_every_n = 0;
  // Cache shared across the points (and with any other holder); nullptr
  // creates a driver-owned cache.
  std::shared_ptr<PlanCache> plan_cache;
};

class SweepDriver {
 public:
  SweepDriver(nn::NetworkModel network, SweepOptions options = {});

  // Executes `network` at every point, in order, each on a one-chip
  // InferenceServer of that point. Every point runs the same input (and
  // the default inter-layer ops); the cache carries over between them.
  [[nodiscard]] std::vector<SweepPointResult> run(
      const std::vector<ChipSpec>& points);

  [[nodiscard]] const std::shared_ptr<PlanCache>& plan_cache() const {
    return cache_;
  }
  [[nodiscard]] const nn::NetworkModel& network() const { return net_; }

 private:
  nn::NetworkModel net_;
  SweepOptions opts_;
  std::shared_ptr<PlanCache> cache_;
};

// The standard executed-DSE point set: chain lengths around the paper's
// 576-PE instantiation at 700 MHz, plus clock scaling at 576 PEs (clock
// points share every cached plan with the 576-PE length point — the
// clock is not part of the plan key). Every point has the default
// HierarchyConfig.
[[nodiscard]] std::vector<ChipSpec> default_sweep_points();

// Channel-reduced execution proxy: keeps every layer's geometry (H/W/K/
// stride/groups) but divides channel counts by `scale` so full networks
// execute quickly; the first layer's input channels are preserved.
[[nodiscard]] nn::NetworkModel channel_reduced_proxy(
    const nn::NetworkModel& net, std::int64_t scale);

}  // namespace chainnn::serve
