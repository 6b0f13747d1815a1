// NetworkRunner: executes a whole convolutional network on Chain-NN — the
// conv layers on the chain (cycle-accurately or on the analytical fast
// path, as AcceleratorConfig::exec_mode selects), the host-side layers
// (max pooling, then ReLU on the pooled tensor) in between — and rolls
// per-layer results up into the batch-level figures the paper reports
// (fps, time split, traffic, modelled power/energy).
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "chain/accelerator.hpp"
#include "energy/energy_model.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"

namespace chainnn::chain {

// Thrown when NetworkRunOptions::cancel_check asks a run to stop at an
// inter-layer checkpoint (the serving layer's deadline/cancellation
// path). Carries how many conv layers had fully executed, so callers can
// account the abandoned work.
class RunCancelled : public std::runtime_error {
 public:
  explicit RunCancelled(std::int64_t completed_layers)
      : std::runtime_error("network run cancelled after " +
                           std::to_string(completed_layers) + " layer(s)"),
        completed_layers_(completed_layers) {}
  [[nodiscard]] std::int64_t completed_layers() const {
    return completed_layers_;
  }

 private:
  std::int64_t completed_layers_ = 0;
};

// Host-side processing applied to a layer's output before it feeds the
// next conv layer. The runner pools first and applies ReLU to the pooled
// tensor, which equals ReLU then pool: ReLU is monotone.
struct InterLayerOp {
  bool relu = true;
  bool pool = false;
  nn::PoolParams pool_params{3, 2, 0};  // AlexNet-style overlapped pool
};

struct NetworkLayerResult {
  nn::ConvLayerParams layer;  // as actually executed (resolved H/W)
  // The layer's run, without its accumulators: the runner frees the wide
  // psums once the ofmaps, narrowing stats and golden check exist.
  LayerRunResult run;
  energy::PowerBreakdown power;  // modelled during this layer
  bool verified = false;         // bit-exact vs golden (when enabled)
};

// Everything a network run holds at an inter-layer boundary: the fully
// executed prefix (per-layer results carry their ofmaps, narrowing
// stats, accumulated RunStats, traffic and modelled power verbatim, and
// no accumulators) and the activations feeding the next conv layer.
// Layer boundaries are the only capture points — a layer is never
// interrupted mid-flight, so there is no half-written accelerator state
// to save — which makes the guarantee cheap and absolute: resuming a
// checkpoint on the same configuration reproduces the uninterrupted run
// bit for bit (ofmaps, narrowing stats, cycles, traffic); resuming on a
// different ArrayShape re-plans the remaining layers and stays
// value-identical on ofmaps.
//
// The default weights are not part of it: they are drawn layer by layer
// from one fixed-seed stream, with each layer's kernel shape taken from
// the model (not from the resolved H/W), so a resume re-draws and
// discards the completed layers' kernels to reach the same point of the
// stream. A caller-supplied weight_init is (layer, tensor)-pure and is
// called for the remaining layers only.
struct RunCheckpoint {
  // Index of the first conv layer not yet executed; layers[0..next_layer)
  // are complete. May equal the network size only on a resumed
  // checkpoint handed back in (a fresh capture always has work left).
  std::int64_t next_layer = 0;
  std::vector<NetworkLayerResult> layers;
  // Input to layer `next_layer` (inter-layer ReLU/pool already applied).
  Tensor<std::int16_t> activations;
};

// Thrown when NetworkRunOptions::preempt_check asks a run to yield at an
// inter-layer checkpoint. Carries the checkpoint by shared_ptr (thrown
// objects are copied; the captured tensors are not).
class RunPreempted : public std::runtime_error {
 public:
  explicit RunPreempted(std::shared_ptr<RunCheckpoint> checkpoint)
      : std::runtime_error("network run preempted after " +
                           std::to_string(checkpoint->next_layer) +
                           " layer(s)"),
        checkpoint_(std::move(checkpoint)) {}
  [[nodiscard]] const std::shared_ptr<RunCheckpoint>& checkpoint() const {
    return checkpoint_;
  }

 private:
  std::shared_ptr<RunCheckpoint> checkpoint_;
};

struct NetworkRunResult {
  std::vector<NetworkLayerResult> layers;
  Tensor<std::int16_t> final_activations;

  [[nodiscard]] double total_seconds() const;
  // Energy integrates each layer's modelled power over its time.
  [[nodiscard]] double total_energy_j() const;
  // Frames/s for a batch of `batch` images on these layers' plans: the
  // batch over the total_seconds() a batch-`batch` run would take.
  [[nodiscard]] double fps(std::int64_t batch) const;
  [[nodiscard]] bool all_verified() const;
};

struct NetworkRunOptions {
  bool verify_against_golden = true;
  // Inter-layer ops per conv layer; defaults applied when shorter than
  // the network (ReLU only).
  std::vector<InterLayerOp> inter_layer;
  // Weight initializer; defaults to deterministic small uniforms.
  std::function<void(std::int64_t layer_index, Tensor<std::int16_t>&)>
      weight_init;
  // Every run executes on one accelerator built for it from the
  // caller's config and cache, with the two overrides below applied.
  //
  // Plan cache for this run, shared with whoever else holds it (other
  // runs, sweep points). nullptr keeps the accelerator's own cache.
  // Semantics-free: results are bit-identical either way.
  std::shared_ptr<serve::PlanCache> plan_cache;
  // Tensor pool for this run's working buffers (see tensor/arena.hpp).
  // nullptr keeps the accelerator config's own arena (which may also be
  // null — plain heap allocation). Semantics-free like the plan cache.
  std::shared_ptr<TensorArena> arena;
  // Cooperative cancellation, polled at a checkpoint before every conv
  // layer: when it returns true the run throws RunCancelled instead of
  // starting the next layer. Layers are never interrupted mid-flight, so
  // a cancelled run leaves no half-written accelerator state behind.
  std::function<bool()> cancel_check;
  // Cooperative preemption, polled at the same inter-layer boundary
  // (after cancel_check — a dead request is cancelled, not checkpointed):
  // when it returns true the run stops and throws RunPreempted carrying a
  // RunCheckpoint of everything completed so far. The serving layer uses
  // this to yield a chip to a higher-priority request without losing the
  // completed layers.
  std::function<bool()> preempt_check;
  // Resume a previously captured checkpoint instead of starting at layer
  // 0: the completed prefix is adopted verbatim (results, stats, traffic)
  // and execution continues at checkpoint->next_layer from
  // checkpoint->activations. `input` is ignored for the layers the
  // checkpoint already covers. Resuming on the same accelerator
  // configuration is bit-identical to an uninterrupted run; resuming on a
  // different ArrayShape re-plans the remaining layers (value-identical
  // ofmaps, different cycle accounting).
  std::shared_ptr<const RunCheckpoint> resume;
};

class NetworkRunner {
 public:
  explicit NetworkRunner(const ChainAccelerator& accelerator,
                         const energy::EnergyModel& energy_model)
      : acc_(accelerator), energy_(energy_model) {}

  // Runs `net` on `input` {N, C0, H0, W0}. Layer spatial sizes are
  // resolved from the flowing activations (the zoo's nominal sizes are
  // overridden so pooled sizes chain correctly).
  [[nodiscard]] NetworkRunResult run(const nn::NetworkModel& net,
                                     const Tensor<std::int16_t>& input,
                                     const NetworkRunOptions& options = {});

 private:
  const ChainAccelerator& acc_;
  const energy::EnergyModel& energy_;
};

}  // namespace chainnn::chain
