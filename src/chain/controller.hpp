// The Chain-NN finite-state-machine controller (§III.B): initialized to
// layer parameters, loads kernels, then streams ifmaps pass by pass.
//
// State sequence per layer:
//   kIdle -> kLoadKernels -> kStream (per pass) -> ... -> kDrain -> kIdle
//
// The controller walks the ExecutionPlan loop nest
//   m_group -> c_tile -> [load kernels] -> image -> phase -> strip -> c
// and for every pass drives the SystolicChain one stream slot per cycle,
// collecting completed windows into the accumulation surface (the
// logical oMemory content) and counting every memory access it makes
// into the layer's dataflow::LayerTraffic.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/chain_core.hpp"
#include "chain/config.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/traffic.hpp"
#include "tensor/tensor.hpp"

namespace chainnn::chain {

enum class ControllerState { kIdle, kLoadKernels, kStream, kDrain };

[[nodiscard]] const char* state_name(ControllerState s);

// Cycle / work accounting for one layer run (whole batch).
struct RunStats {
  std::int64_t kernel_load_cycles = 0;
  std::int64_t stream_cycles = 0;   // per batch (all images)
  std::int64_t drain_cycles = 0;
  std::int64_t windows_collected = 0;
  std::int64_t macs_performed = 0;  // real (non-masked) MACs
  std::int64_t passes = 0;

  [[nodiscard]] std::int64_t total_cycles() const {
    return kernel_load_cycles + stream_cycles + drain_cycles;
  }
};

// Runs one layer, bit-exactly, on the register-level chain model.
class LayerController {
 public:
  // Memory sizes (word size, iMemory and oMemory capacity) are read from
  // plan.memory.
  LayerController(const AcceleratorConfig& cfg,
                  const dataflow::ExecutionPlan& plan);

  // `ifmaps` {N,C,H,W} and `kernels` {M,C/g,K,K} are raw 16-bit words.
  // Returns wide accumulators {N,M,E_h,E_w}; `stats` receives the cycle
  // accounting and `traffic` the bytes moved at every memory level. In
  // kStaged16 mode the accumulators hold the staged 16-bit partials
  // (sign-extended). Throws std::logic_error if a row block's partials
  // exceed plan.memory.omemory_bytes.
  [[nodiscard]] Tensor<std::int64_t> run(const Tensor<std::int16_t>& ifmaps,
                                         const Tensor<std::int16_t>& kernels,
                                         RunStats& stats,
                                         dataflow::LayerTraffic& traffic);

  [[nodiscard]] ControllerState state() const { return state_; }

  // Sequence of states entered during run() (§III.B's FSM execution
  // procedure), capped at kFsmTraceCap entries.
  static constexpr std::size_t kFsmTraceCap = 4096;
  [[nodiscard]] const std::vector<ControllerState>& fsm_trace() const {
    return fsm_trace_;
  }

 private:
  struct MGroup {
    std::int64_t group = 0;            // convolution group index
    std::int64_t first_m = 0;          // first ofmap channel (absolute)
    std::int64_t kernels_resident = 0; // <= primitives
  };

  void load_kernels_for(const MGroup& mg, std::int64_t c_tile_idx,
                        const Tensor<std::int16_t>& kernels,
                        RunStats& stats, dataflow::LayerTraffic& traffic);
  void run_pass(const MGroup& mg, std::int64_t image,
                std::int64_t sub_index, const dataflow::Strip& strip,
                std::int64_t c_abs, std::int64_t c_local,
                const Tensor<std::int16_t>& ifmaps,
                Tensor<std::int64_t>& acc, RunStats& stats,
                dataflow::LayerTraffic& traffic);

  // Accumulates one completed window psum into the surface under the
  // configured PsumStorage policy; counts the oMemory accesses.
  void accumulate(Tensor<std::int64_t>& acc, std::int64_t n, std::int64_t m,
                  std::int64_t oy, std::int64_t ox, std::int64_t psum,
                  bool first_pass, dataflow::LayerTraffic& traffic);

  void enter_state(ControllerState s);

  const AcceleratorConfig& cfg_;
  const dataflow::ExecutionPlan& plan_;
  SystolicChain chain_;
  ControllerState state_ = ControllerState::kIdle;
  std::vector<ControllerState> fsm_trace_;
  std::vector<MGroup> m_groups_;
};

}  // namespace chainnn::chain
