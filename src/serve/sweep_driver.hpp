// SweepDriver — executed design-space exploration.
//
// The closed-form tables of examples/design_space.cpp rank design points
// by the plan's analytic cycle counts alone. Following the whole-life /
// full-network evaluation methodology of the related accelerator-DSE
// literature, this driver instead *executes* the workload network end to
// end at every design point: each point becomes one request (per-request
// ArrayShape override) through a shared InferenceServer, submitted and
// awaited one at a time, so
//
//   * ofmaps are actually computed (and optionally fidelity-sampled
//     cycle-accurately) rather than assumed;
//   * per-point latency / energy roll up from per-layer executed runs;
//   * one PlanCache spans all points — points differing only in clock
//     frequency share every plan, and repeated layer shapes hit across
//     the whole sweep (plan_cache()->stats() shows what it saved). The
//     server prices each point at submit, so a point's first lookup of a
//     shape plans it and its execution then hits; a point the planner
//     cannot map throws from run().
//
// The cache is semantics-free: a sweep with a shared cache produces
// per-point cycles/energy identical to a cold-cache sweep
// (tests/serve/test_sweep_driver.cpp pins this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/array_shape.hpp"
#include "nn/models.hpp"
#include "serve/inference_server.hpp"

namespace chainnn::serve {

struct SweepPointSpec {
  std::string label;
  dataflow::ArrayShape array;
};

struct SweepPointResult {
  SweepPointSpec point;
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
  std::int64_t fidelity_sample_every_n = 0;  // forwarded to the server
  // Cache shared across the points (and with any other holder); nullptr
  // creates a driver-owned cache.
  std::shared_ptr<PlanCache> plan_cache;
  std::vector<chain::InterLayerOp> inter_layer;
  // Seed of the one input every point executes.
  std::uint64_t input_seed = 7;
  // Memory sizes of the server's accelerator, for sweeps validating
  // design points whose oMemory differs from the paper default (the
  // per-point ArrayShape override covers the chain and kernel-storage
  // axes; memory capacities live in the accelerator config). nullopt
  // keeps the default HierarchyConfig.
  std::optional<mem::HierarchyConfig> memory;
};

class SweepDriver {
 public:
  SweepDriver(nn::NetworkModel network, SweepOptions options = {});

  // Executes `network` at every point, in order, through one
  // InferenceServer. Points are independent requests; the cache carries
  // over between them.
  [[nodiscard]] std::vector<SweepPointResult> run(
      const std::vector<SweepPointSpec>& points);

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
// clock is not part of the plan key).
[[nodiscard]] std::vector<SweepPointSpec> default_sweep_points();

// Channel-reduced execution proxy: keeps every layer's geometry (H/W/K/
// stride/groups) but divides channel counts by `scale` so full networks
// execute quickly; the first layer's input channels are preserved.
[[nodiscard]] nn::NetworkModel channel_reduced_proxy(
    const nn::NetworkModel& net, std::int64_t scale);

}  // namespace chainnn::serve
