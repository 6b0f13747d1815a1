// ChainAccelerator — the public entry point of the Chain-NN library.
//
// Wraps the dataflow compiler (ExecutionPlan, through a plan cache) and
// the register-level chain model (SystolicChain + LayerController) into
// one object that runs convolutional layers bit-exactly and reports
// cycles, utilization and per-memory traffic. AcceleratorConfig::exec_mode
// selects between the cycle-accurate controller and the analytical fast
// path (same results, closed-form accounting — see config.hpp). It holds
// only its config and its plan cache, so run_layer is const and returns
// each layer's traffic in its result.
//
// Typical use (see examples/quickstart.cpp):
//
//   chain::AcceleratorConfig cfg;                  // paper's 576-PE chip
//   chain::ChainAccelerator acc(cfg);
//   auto result = acc.run_layer(layer, ifmaps, kernels);
//   // result.ofmaps    — 16-bit ofmaps (bit-exact vs. the golden model)
//   // result.stats     — cycles, windows, MACs
//   // result.traffic   — bytes per memory level (DRAM per operand,
//   //                    iMemory / kMemory / oMemory reads and writes)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/config.hpp"
#include "chain/controller.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/traffic.hpp"
#include "nn/conv_params.hpp"
#include "serve/plan_cache.hpp"
#include "tensor/tensor.hpp"

namespace chainnn::chain {

struct LayerRunResult {
  dataflow::ExecutionPlan plan;
  // Wide psums (or staged partials). A NetworkRunner result holds none:
  // the runner frees them once the layer is written back.
  Tensor<std::int64_t> accumulators;
  Tensor<std::int16_t> ofmaps;        // requantized outputs
  RunStats stats;
  dataflow::LayerTraffic traffic;     // bytes moved per memory level
  fixed::NarrowingStats narrowing;

  // Seconds for the whole batch at the configured clock.
  [[nodiscard]] double seconds() const;
  // Achieved throughput in ops/s (2 ops per MAC) over the batch.
  [[nodiscard]] double achieved_ops_per_s() const;
  [[nodiscard]] double utilization() const;

  // The clock the plan was made for (what seconds() divides by).
  [[nodiscard]] double clock_hz() const { return plan.array.clock_hz; }
};

class ChainAccelerator {
 public:
  // All plan lookups go through `plan_cache`; pass a shared cache to pool
  // plans across accelerators (server requests, sweep points). The
  // default — no cache given — creates a private per-accelerator cache,
  // which preserves the historical behaviour bit-for-bit (the cache is
  // semantics-free; see serve/plan_cache.hpp).
  explicit ChainAccelerator(const AcceleratorConfig& cfg = {},
                            std::shared_ptr<serve::PlanCache> plan_cache =
                                nullptr);

  [[nodiscard]] const AcceleratorConfig& config() const { return cfg_; }
  [[nodiscard]] const std::shared_ptr<serve::PlanCache>& plan_cache() const {
    return plan_cache_;
  }

  // Runs one conv layer (whole batch) under cfg.exec_mode: either the
  // cycle-accurate chain model or the analytical fast path, which
  // returns bit-identical ofmaps/accumulators and identical cycles and
  // traffic orders of magnitude faster.
  // `bias`, if given, is {M} in ofmap format, applied at requantization.
  [[nodiscard]] LayerRunResult run_layer(
      const nn::ConvLayerParams& layer, const Tensor<std::int16_t>& ifmaps,
      const Tensor<std::int16_t>& kernels,
      const Tensor<std::int16_t>* bias = nullptr) const;

  // Plans a layer without running it (for sizing / DSE).
  [[nodiscard]] dataflow::ExecutionPlan plan(
      const nn::ConvLayerParams& layer) const;

  // Float convenience wrapper: quantizes inputs/weights to the
  // configured formats (the paper's float-to-fixed flow, §V.A), runs the
  // chain, and returns dequantized float outputs alongside the raw
  // result. `quantization` (optional) receives the conversion stats.
  struct FloatRunResult {
    LayerRunResult raw;
    Tensor<float> ofmaps;
  };
  [[nodiscard]] FloatRunResult run_layer_float(
      const nn::ConvLayerParams& layer, const Tensor<float>& ifmaps,
      const Tensor<float>& kernels,
      fixed::NarrowingStats* quantization = nullptr) const;

 private:
  AcceleratorConfig cfg_;
  std::shared_ptr<serve::PlanCache> plan_cache_;
};

// Reference for the kStaged16 accumulation policy: replays the plan's
// (phase, channel) pass order on the golden per-pass psums so tests can
// pin the staged datapath bit-exactly (the wide policy is pinned against
// nn::conv2d_fixed_accum instead).
[[nodiscard]] Tensor<std::int64_t> staged_reference(
    const AcceleratorConfig& cfg, const dataflow::ExecutionPlan& plan,
    const Tensor<std::int16_t>& ifmaps, const Tensor<std::int16_t>& kernels);

}  // namespace chainnn::chain
