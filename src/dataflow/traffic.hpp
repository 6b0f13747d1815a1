// A layer's memory traffic, per level — the row format of the paper's
// Table IV ("memory communication breakdown"). The column-wise scan makes
// every level's traffic a closed form of the execution plan (§V.C);
// model_traffic computes it, the analytical engine returns it as the
// layer's traffic, and the cycle-accurate controller counts the same ten
// fields pass by pass (pinned equal, field for field, by
// Accelerator.MeasuredTrafficMatchesAnalyticModel). report::fidelity_ledger()
// sets it against the paper's Table IV.
//
// Counting rules (from §V.C and the Table IV data itself):
//   iMemory reads  — every real (non-padding) ifmap pixel streamed into
//                    the chain: one read per pixel per strip pass, i.e.
//                    about (2K-1)/K reads per pixel per m-group.
//   kMemory reads  — one weight read per active PE per (strip, channel)
//                    pass (the weight then stays in the MAC operand
//                    register for the whole pattern — activity factor
//                    ~1/KE, §V.C); writes = kernel loads, once per batch.
//   oMemory        — one partial-sum read + write per window completion
//                    (16-bit words; first accumulation pass skips the
//                    read).
//   DRAM           — ifmaps fetched once per (strip, channel) when a
//                    channel strip fits in iMemory (kernels for several
//                    m-groups are then cycled from kMemory), otherwise
//                    refetched per m-group; kernels once per batch;
//                    ofmaps written once.
#pragma once

#include <cstdint>

#include "dataflow/plan.hpp"

namespace chainnn::dataflow {

struct LayerTraffic {
  // Per-batch byte counts, split by operand where meaningful.
  std::uint64_t dram_ifmap = 0;
  std::uint64_t dram_kernel = 0;
  std::uint64_t dram_ofmap = 0;
  // Partial-sum spill when the channel dimension needs several kMemory
  // residencies (c_tiles > 1, e.g. VGG's C = 512 layers).
  std::uint64_t dram_psum = 0;
  std::uint64_t imem_reads = 0;
  std::uint64_t imem_writes = 0;
  std::uint64_t kmem_reads = 0;
  std::uint64_t kmem_writes = 0;
  std::uint64_t omem_reads = 0;
  std::uint64_t omem_writes = 0;

  [[nodiscard]] std::uint64_t dram_total() const {
    return dram_ifmap + dram_kernel + dram_ofmap + dram_psum;
  }
  [[nodiscard]] std::uint64_t imem_total() const {
    return imem_reads + imem_writes;
  }
  [[nodiscard]] std::uint64_t kmem_total() const {
    return kmem_reads + kmem_writes;
  }
  [[nodiscard]] std::uint64_t omem_total() const {
    return omem_reads + omem_writes;
  }

  friend bool operator==(const LayerTraffic&, const LayerTraffic&) = default;
};

// Traffic for `batch` images of the planned layer; word size and iMemory
// capacity come from plan.memory.
[[nodiscard]] LayerTraffic model_traffic(const ExecutionPlan& plan,
                                         std::int64_t batch);

// Real (non-padding) pixels streamed for one strip of one channel of one
// sub-convolution — exposed for tests and for the cycle simulator, which
// must count iMemory and DRAM fetches identically.
[[nodiscard]] std::int64_t strip_real_pixels(const nn::ConvLayerParams& layer,
                                             const SubConv& sub,
                                             const Strip& strip);

// Same, for the single-channel (Fig. 5(a)) pattern, which re-streams each
// output row's K_r-row band.
[[nodiscard]] std::int64_t strip_real_pixels_single_channel(
    const nn::ConvLayerParams& layer, const SubConv& sub,
    const Strip& strip);

// Average ifmap reads-per-pixel factor ((2K-1)/K in the paper's §V.C).
[[nodiscard]] double ifmap_reuse_factor(const ExecutionPlan& plan);

// kMemory activity factor during streaming: reads per cycle (the paper
// quotes 1/KE ≈ 2.22% for AlexNet conv3).
[[nodiscard]] double kmem_activity_factor(const ExecutionPlan& plan);

}  // namespace chainnn::dataflow
