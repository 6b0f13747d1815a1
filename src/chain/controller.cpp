#include "chain/controller.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace chainnn::chain {

const char* state_name(ControllerState s) {
  switch (s) {
    case ControllerState::kIdle: return "IDLE";
    case ControllerState::kLoadKernels: return "LOAD_KERNELS";
    case ControllerState::kStream: return "STREAM";
    case ControllerState::kDrain: return "DRAIN";
  }
  return "?";
}

void LayerController::enter_state(ControllerState s) {
  state_ = s;
  if (fsm_trace_.size() < kFsmTraceCap) fsm_trace_.push_back(s);
}

LayerController::LayerController(const AcceleratorConfig& cfg,
                                 const dataflow::ExecutionPlan& plan)
    : cfg_(cfg),
      plan_(plan),
      chain_(plan.primitives, plan.taps, plan.array.kmem_words_per_pe) {
  // Resident-kernel groups: chunks of `primitives` kernels, never mixing
  // convolution groups (resident kernels share the ifmap stream).
  const std::int64_t m_per_group = plan_.layer.out_channels_per_group();
  for (std::int64_t g = 0; g < plan_.layer.groups; ++g) {
    for (std::int64_t chunk = 0; chunk < m_per_group;
         chunk += plan_.primitives) {
      MGroup mg;
      mg.group = g;
      mg.first_m = g * m_per_group + chunk;
      mg.kernels_resident = std::min(plan_.primitives, m_per_group - chunk);
      m_groups_.push_back(mg);
    }
  }
  CHAINNN_CHECK(static_cast<std::int64_t>(m_groups_.size()) ==
                plan_.m_groups);
}

void LayerController::load_kernels_for(const MGroup& mg,
                                       std::int64_t c_tile_idx,
                                       const Tensor<std::int16_t>& kernels,
                                       RunStats& stats,
                                       dataflow::LayerTraffic& traffic) {
  enter_state(ControllerState::kLoadKernels);
  const nn::ConvLayerParams& layer = plan_.layer;
  const auto n_subs = static_cast<std::int64_t>(plan_.subconvs.size());
  const std::int64_t c_base = c_tile_idx * plan_.c_tile;
  const std::int64_t c_limit =
      std::min(plan_.c_tile, layer.channels_per_group() - c_base);

  std::int64_t loads = 0;
  for (std::int64_t q = 0; q < mg.kernels_resident; ++q) {
    const std::int64_t m = mg.first_m + q;
    for (std::int64_t c_local = 0; c_local < c_limit; ++c_local) {
      const std::int64_t c_in_group = c_base + c_local;
      for (std::int64_t si = 0; si < n_subs; ++si) {
        const dataflow::SubConv& sub = plan_.subconvs[si].sub;
        const std::int64_t word = c_local * n_subs + si;
        for (std::int64_t sky = 0; sky < sub.kernel_rows; ++sky) {
          for (std::int64_t skx = 0; skx < sub.kernel_cols; ++skx) {
            const std::int64_t ky = sub.phase_row + layer.stride * sky;
            const std::int64_t kx = sub.phase_col + layer.stride * skx;
            const std::int64_t s = sky + sub.kernel_rows * skx;
            const std::int64_t p = sub.taps() - 1 - s;
            chain_.primitive(q).load_kmemory(
                p, word, kernels.at(m, c_in_group, ky, kx));
            ++loads;
          }
        }
      }
    }
  }
  stats.kernel_load_cycles += loads;  // 1 word per cycle (§V.B)
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(loads) * plan_.memory.word_bytes;
  traffic.kmem_writes += bytes;
  traffic.dram_kernel += bytes;
}

void LayerController::accumulate(Tensor<std::int64_t>& acc, std::int64_t n,
                                 std::int64_t m, std::int64_t oy,
                                 std::int64_t ox, std::int64_t psum,
                                 bool first_pass,
                                 dataflow::LayerTraffic& traffic) {
  std::int64_t& slot = acc.at(n, m, oy, ox);
  if (cfg_.psum_storage == PsumStorage::kWide) {
    fixed::Accumulator48 a(slot);
    a.add(psum);
    slot = a.value();
  } else {
    // Staged 16-bit partials: narrow this pass's psum to the psum format
    // and add saturating into the stored partial.
    const int acc_frac =
        cfg_.ifmap_fmt.frac_bits + cfg_.kernel_fmt.frac_bits;
    const std::int16_t narrowed = fixed::narrow_to_fixed16(
        psum, acc_frac, cfg_.psum_fmt, cfg_.rounding,
        fixed::Overflow::kSaturate);
    std::int64_t sum = slot + narrowed;
    sum = std::clamp<std::int64_t>(sum, -32768, 32767);
    slot = sum;
  }
  traffic.omem_writes += plan_.memory.word_bytes;
  if (!first_pass) traffic.omem_reads += plan_.memory.word_bytes;
}

void LayerController::run_pass(const MGroup& mg, std::int64_t image,
                               std::int64_t sub_index,
                               const dataflow::Strip& strip,
                               std::int64_t c_abs, std::int64_t c_local,
                               const Tensor<std::int16_t>& ifmaps,
                               Tensor<std::int64_t>& acc, RunStats& stats,
                               dataflow::LayerTraffic& traffic) {
  enter_state(ControllerState::kStream);
  const nn::ConvLayerParams& layer = plan_.layer;
  const dataflow::SubConvPlan& sp = plan_.subconvs[sub_index];
  const dataflow::SubConv& sub = sp.sub;
  const auto n_subs = static_cast<std::int64_t>(plan_.subconvs.size());

  const StripPattern pattern(sub.kernel_rows, sub.kernel_cols,
                             sp.strip_rows(strip), sub.in_cols,
                             strip.out_rows, plan_.array.dual_channel);

  // Latch this pass's weights from kMemory into the MAC operand registers.
  const std::int64_t word = c_local * n_subs + sub_index;
  const std::int64_t kmem_reads = chain_.latch_weights(sub.taps(), word);
  traffic.kmem_reads +=
      static_cast<std::uint64_t>(kmem_reads) * plan_.memory.word_bytes;

  chain_.reset_pass_state();

  const std::int64_t group_first_c =
      mg.group * layer.channels_per_group();
  const bool first_pass = sub_index == 0 && c_abs == group_first_c;
  const std::int64_t taps_phys = plan_.taps;
  const std::int64_t e_h = layer.out_height();
  const std::int64_t e_w = layer.out_width();

  // Fetch one channel pixel for a scheduled slot, counting an iMemory
  // read for real (non-padding) pixels.
  auto fetch = [&](const std::optional<ScheduledPixel>& px) -> std::int16_t {
    if (!px) return 0;
    const std::int64_t dec_row = strip.first_out_row + px->row;
    const std::int64_t dec_col = px->col;
    const std::int64_t pr = layer.stride * dec_row + sub.phase_row;
    const std::int64_t pc = layer.stride * dec_col + sub.phase_col;
    const std::int64_t r = pr - layer.pad_rows();
    const std::int64_t c = pc - layer.pad_cols();
    if (r < 0 || r >= layer.in_height || c < 0 || c >= layer.in_width)
      return 0;  // padding, synthesized rather than read
    traffic.imem_reads += plan_.memory.word_bytes;
    return ifmaps.at(image, c_abs, r, c);
  };

  const std::int64_t slots = pattern.num_slots();
  for (std::int64_t slot = 0; slot < slots + taps_phys; ++slot) {
    const std::int16_t in0 = fetch(pattern.pixel_at(slot, 0));
    const std::int16_t in1 = fetch(pattern.pixel_at(slot, 1));
    chain_.step(pattern, slot, in0, in1);

    // Window t's psum commits into the last PE at the end of cycle
    // t + (T-1): PE 0 MACs at t, each later PE one cycle after.
    const auto comp = pattern.completion_at(slot - (taps_phys - 1));
    if (!comp) continue;
    const std::int64_t oy = strip.first_out_row + comp->r0;
    const std::int64_t ox = comp->c0;
    if (oy >= e_h || ox >= e_w) continue;
    for (std::int64_t q = 0; q < mg.kernels_resident; ++q) {
      accumulate(acc, image, mg.first_m + q, oy, ox, chain_.output(q),
                 first_pass, traffic);
      ++stats.windows_collected;
      stats.macs_performed += sub.taps();
    }
  }
  stats.stream_cycles += slots;  // drain overlaps the next pass's stream
  ++stats.passes;
}

Tensor<std::int64_t> LayerController::run(const Tensor<std::int16_t>& ifmaps,
                                          const Tensor<std::int16_t>& kernels,
                                          RunStats& stats,
                                          dataflow::LayerTraffic& traffic) {
  const nn::ConvLayerParams& layer = plan_.layer;
  CHAINNN_CHECK(ifmaps.shape() == Shape({layer.batch, layer.in_channels,
                                         layer.in_height, layer.in_width}));
  CHAINNN_CHECK(kernels.shape() ==
                Shape({layer.out_channels, layer.channels_per_group(),
                       layer.kernel, layer.kernel}));

  Tensor<std::int64_t> acc(Shape{layer.batch, layer.out_channels,
                                 layer.out_height(), layer.out_width()});

  const std::uint64_t wb = plan_.memory.word_bytes;
  // DRAM ifmap fetch policy must match dataflow::model_traffic: compute
  // whether strips can be fetched once and re-streamed across m-groups.
  std::uint64_t max_strip_bytes = 0;
  for (const dataflow::SubConvPlan& sp : plan_.subconvs)
    for (const dataflow::Strip& strip : sp.strips)
      max_strip_bytes = std::max(
          max_strip_bytes,
          static_cast<std::uint64_t>(dataflow::strip_real_pixels(
              layer, sp.sub, strip)) * wb);
  const bool fetch_once = plan_.all_kernels_resident &&
                          max_strip_bytes * 2 <= plan_.memory.imemory_bytes;

  const std::int64_t e_h = layer.out_height();

  bool first_mgroup = true;
  for (const MGroup& mg : m_groups_) {
    for (std::int64_t ct = 0; ct < plan_.c_tiles; ++ct) {
      load_kernels_for(mg, ct, kernels, stats, traffic);
      const std::int64_t c_base = ct * plan_.c_tile;
      const std::int64_t c_limit =
          std::min(plan_.c_tile, layer.channels_per_group() - c_base);

      for (std::int64_t n = 0; n < layer.batch; ++n) {
        // Walk output rows in oMemory-resident blocks; within a block,
        // every phase's strips then every channel of the tile.
        for (std::int64_t b = 0; b < e_h; b += plan_.row_block) {
          const std::int64_t b_end = std::min(b + plan_.row_block, e_h);
          // The block's partials live in oMemory until every (phase,
          // channel) pass has accumulated; enforce the capacity the plan
          // promised.
          const std::uint64_t block_bytes =
              static_cast<std::uint64_t>(mg.kernels_resident) *
              static_cast<std::uint64_t>(b_end - b) *
              static_cast<std::uint64_t>(layer.out_width()) * wb;
          CHAINNN_CHECK_MSG(block_bytes <= plan_.memory.omemory_bytes,
                            "oMemory: a row block's partials ("
                                << block_bytes << "B) exceed its "
                                << plan_.memory.omemory_bytes << "B");
          const auto n_subs =
              static_cast<std::int64_t>(plan_.subconvs.size());
          for (std::int64_t si = 0; si < n_subs; ++si) {
            for (const dataflow::Strip& strip : plan_.subconvs[si].strips) {
              if (strip.first_out_row < b || strip.first_out_row >= b_end)
                continue;
              for (std::int64_t cl = 0; cl < c_limit; ++cl) {
                const std::int64_t c_abs =
                    mg.group * layer.channels_per_group() + c_base + cl;
                if (!fetch_once || first_mgroup) {
                  const auto bytes = static_cast<std::uint64_t>(
                                         dataflow::strip_real_pixels(
                                             layer, plan_.subconvs[si].sub,
                                             strip)) *
                                     wb;
                  traffic.dram_ifmap += bytes;
                  traffic.imem_writes += bytes;
                }
                run_pass(mg, n, si, strip, c_abs, cl, ifmaps, acc, stats,
                         traffic);
              }
            }
          }
        }
        // Psum spill between channel residencies (c_tiles > 1).
        if (plan_.c_tiles > 1 && ct + 1 < plan_.c_tiles) {
          const auto spill =
              static_cast<std::uint64_t>(mg.kernels_resident) *
              static_cast<std::uint64_t>(e_h) *
              static_cast<std::uint64_t>(layer.out_width()) * wb;
          traffic.dram_psum += 2 * spill;  // written out, read back
        }
      }
    }
    first_mgroup = false;
  }

  // Final ofmap writeback.
  traffic.dram_ofmap +=
      static_cast<std::uint64_t>(layer.ofmap_pixels_per_image()) *
      static_cast<std::uint64_t>(layer.batch) * wb;

  enter_state(ControllerState::kDrain);
  stats.drain_cycles = dataflow::layer_cycles(plan_, plan_.array).drain;
  enter_state(ControllerState::kIdle);
  return acc;
}

}  // namespace chainnn::chain
