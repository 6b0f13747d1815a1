// Execution planning: how one convolutional layer maps onto the 1D chain.
//
// The plan captures the Fig. 7 loop nest:
//
//   for m_group (OuterTile over ofmap channels; the resident kernels —
//                one per primitive — live in kMemory)
//     for c_tile (ifmap-channel slice whose weights fit kMemory)
//       load kernels (1 word/cycle; totals once per batch, §V.B)
//       for n in batch (InnerTile)
//         for sub_conv (stride phase decomposition; 1 entry if stride==1)
//           for strip (group of up to K_r ofmap rows)
//             for c in c_tile
//               stream the strip column-major through the dual channels;
//               every resident primitive computes one kernel's windows,
//               partial sums accumulate in oMemory.
//
// Two timing views:
//   * layer_cycles() — the schedule the cycle-accurate simulator
//     executes; tests assert the simulator's measured counts equal this
//     closed form exactly. It is the only one: every engine, router and
//     cost model reads its cycles from it.
//   * paper_model_cycles_*() — the idealized model the paper's Fig. 9
//     numbers follow (MACs / active-PEs, x stride for strided layers,
//     x K for single-channel PEs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/array_shape.hpp"
#include "dataflow/stride_decompose.hpp"
#include "mem/hierarchy.hpp"
#include "nn/conv_params.hpp"

namespace chainnn::dataflow {

// One strip of a sub-convolution: a group of up to K_r ofmap rows
// produced by streaming (out_rows + K_r - 1) ifmap rows column-major.
struct Strip {
  std::int64_t first_out_row = 0;  // first output row of the strip
  std::int64_t out_rows = 0;       // valid output rows (<= K_r)

  friend bool operator==(const Strip&, const Strip&) = default;
};

// Plan for one sub-convolution on the chain.
struct SubConvPlan {
  SubConv sub;
  std::int64_t out_rows = 0;  // E_h of the layer (every phase covers it)
  std::int64_t out_cols = 0;  // E_w
  std::vector<Strip> strips;

  // Rows streamed for `strip`: out_rows + K_r - 1.
  [[nodiscard]] std::int64_t strip_rows(const Strip& strip) const {
    return strip.out_rows + sub.kernel_rows - 1;
  }
  // Stream slots for `strip` under the dual-channel pattern:
  // K_r*(in_cols-1) + strip_rows.
  [[nodiscard]] std::int64_t slots_for(const Strip& strip) const {
    return sub.kernel_rows * (sub.in_cols - 1) + strip_rows(strip);
  }
  [[nodiscard]] std::int64_t stream_slots_total() const;
};

struct ExecutionPlan {
  nn::ConvLayerParams layer;
  ArrayShape array;
  mem::HierarchyConfig memory;

  std::int64_t taps = 0;        // physical PEs per primitive (max phase)
  std::int64_t primitives = 0;  // resident kernels per pass (may be
                                // capped by oMemory partial capacity)
  std::int64_t active_pes = 0;
  std::int64_t m_groups = 0;    // ofmap-channel tiles (grouped convs
                                // multiplied out)
  std::int64_t c_tile = 0;      // ifmap channels per kMemory residency
  std::int64_t c_tiles = 0;     // ceil(C/groups / c_tile)
  // Output rows whose partials co-reside in oMemory. Strided layers run
  // several phases with different K_r over the same outputs, so strips
  // are aligned into blocks of lcm(K_r) rows; the partials of a block
  // stay in oMemory until every (phase, channel) pass has accumulated.
  std::int64_t row_block = 0;
  std::vector<SubConvPlan> subconvs;

  // True when every m-group's and c-tile's kernels fit kMemory at once,
  // letting ifmap strips be fetched from DRAM once and re-streamed from
  // iMemory across m-groups (the DRAM policy of traffic.hpp).
  bool all_kernels_resident = false;

  // Kernel words of the layer; they load at 1 word/cycle (§V.B).
  [[nodiscard]] std::int64_t kernel_words_total() const {
    return layer.weight_count();
  }

  // Strip passes the controller issues per image (one per
  // (m_group, channel, phase, strip)).
  [[nodiscard]] std::int64_t passes_per_image() const;

  // Window completions per image (one per (m, c, phase, output site)).
  [[nodiscard]] std::int64_t windows_per_image() const;

  // MAC utilization over the whole chain: MACs / (num_pes x cycles) for
  // one image's stream plus the drain (the kernel load excluded).
  [[nodiscard]] double utilization_per_image() const;

  // --- the paper's idealized timing model -----------------------------------
  [[nodiscard]] std::int64_t paper_model_cycles_per_image() const;
  [[nodiscard]] double paper_model_seconds_per_batch(
      std::int64_t batch) const;

  [[nodiscard]] std::string to_string() const;
};

// Builds the plan; throws if the layer cannot be mapped (kernel taps
// exceeding the chain, or one kernel's partials not fitting oMemory).
[[nodiscard]] ExecutionPlan plan_layer(
    const nn::ConvLayerParams& layer, const ArrayShape& array,
    const mem::HierarchyConfig& memory = {});

// Identity of a plan's *derived structure* (taps, primitives, tiling,
// strips). plan_layer's outputs depend only on these fields: layer
// geometry (batch and name excluded — they are carried verbatim but
// shape nothing), the chain length and per-PE kernel storage, and the
// oMemory capacity in words. Everything else (clock frequency, pipeline
// depth, dual_channel, iMemory/kMemory sizes) is stored in the plan but
// only consulted at query time, so plans can be shared across configs
// that differ in those fields — serve::PlanCache keys on this struct and
// re-stamps layer/array/memory verbatim on every fetch.
struct PlanKey {
  // Layer geometry (effective per-axis padding, not the raw pad fields).
  std::int64_t in_channels = 0, out_channels = 0;
  std::int64_t in_height = 0, in_width = 0;
  std::int64_t kernel = 0, stride = 0, groups = 0;
  std::int64_t pad_rows = 0, pad_cols = 0;
  // Array structure.
  std::int64_t num_pes = 0, kmem_words_per_pe = 0;
  // Memory capacity that caps resident kernels.
  std::uint64_t omemory_bytes = 0, word_bytes = 0;

  [[nodiscard]] static PlanKey from(const nn::ConvLayerParams& layer,
                                    const ArrayShape& array,
                                    const mem::HierarchyConfig& memory);
  [[nodiscard]] std::size_t hash() const;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const { return k.hash(); }
};

// The closed form for a layer's cycles: the schedule the cycle-accurate
// controller executes and the analytical engine replays, count for count
// (tests/chain/test_exec_mode.cpp). Kernels load once per batch at 1
// word/cycle (§V.B); every image streams each phase's strips once per
// (m-group, channel); the chain drain overlaps the next pass's stream,
// so it is paid once per run, not once per image.
struct LayerCycles {
  std::int64_t kernel_load = 0;       // once per batch
  std::int64_t stream_per_image = 0;  // stream slots of one image
  std::int64_t drain = 0;             // once per run

  [[nodiscard]] std::int64_t total(std::int64_t batch) const {
    return kernel_load + batch * stream_per_image + drain;
  }

  friend bool operator==(const LayerCycles&, const LayerCycles&) = default;
};
// dual_channel and pipeline_stages are read from `array`, not from
// plan.array: both sit outside PlanKey, so a plan shared through
// serve::PlanCache is costed with the caller's array.
[[nodiscard]] LayerCycles layer_cycles(const ExecutionPlan& plan,
                                       const ArrayShape& array);

// Table II helper: active primitive/PE counts for a square kernel K
// (pure chain regrouping — no memory constraints).
struct UtilizationRow {
  std::int64_t kernel = 0;
  std::int64_t pes_per_primitive = 0;
  std::int64_t active_primitives = 0;
  std::int64_t active_pes = 0;
  double efficiency = 0.0;
};
[[nodiscard]] UtilizationRow utilization_row(const ArrayShape& array,
                                             std::int64_t kernel);

}  // namespace chainnn::dataflow
