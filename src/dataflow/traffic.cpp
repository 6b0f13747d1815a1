#include "dataflow/traffic.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace chainnn::dataflow {

namespace {

// Real columns of the decimated strip (independent of rows).
std::int64_t strip_real_cols(const nn::ConvLayerParams& layer,
                             const SubConv& sub) {
  std::int64_t real_cols = 0;
  for (std::int64_t c = 0; c < sub.in_cols; ++c) {
    const std::int64_t pc = layer.stride * c + sub.phase_col;
    if (pc >= layer.pad_cols() && pc < layer.pad_cols() + layer.in_width)
      ++real_cols;
  }
  return real_cols;
}

// True if decimated row r maps to a real (non-padding) image row.
bool row_is_real(const nn::ConvLayerParams& layer, const SubConv& sub,
                 std::int64_t r) {
  if (r < 0 || r >= sub.in_rows) return false;
  const std::int64_t pr = layer.stride * r + sub.phase_row;
  return pr >= layer.pad_rows() && pr < layer.pad_rows() + layer.in_height;
}

}  // namespace

// Pixels streamed by the single-channel (Fig. 5(a)) pattern: each output
// row re-streams its K_r-row band.
std::int64_t strip_real_pixels_single_channel(
    const nn::ConvLayerParams& layer, const SubConv& sub,
    const Strip& strip) {
  const std::int64_t cols = strip_real_cols(layer, sub);
  std::int64_t rows = 0;
  for (std::int64_t r0 = 0; r0 < strip.out_rows; ++r0)
    for (std::int64_t r = strip.first_out_row + r0;
         r < strip.first_out_row + r0 + sub.kernel_rows; ++r)
      if (row_is_real(layer, sub, r)) ++rows;
  return rows * cols;
}

std::int64_t strip_real_pixels(const nn::ConvLayerParams& layer,
                               const SubConv& sub, const Strip& strip) {
  // Strip streams decimated rows [first_out_row, first_out_row +
  // out_rows + K_r - 2], clipped to the decimated grid; of those, count
  // positions that land on real (non-padding) image pixels.
  std::int64_t real_rows = 0;
  const std::int64_t last_row =
      strip.first_out_row + strip.out_rows + sub.kernel_rows - 2;
  for (std::int64_t r = strip.first_out_row; r <= last_row; ++r)
    if (row_is_real(layer, sub, r)) ++real_rows;
  return real_rows * strip_real_cols(layer, sub);
}

double ifmap_reuse_factor(const ExecutionPlan& plan) {
  const std::int64_t k = plan.layer.kernel;
  return static_cast<double>(2 * k - 1) / static_cast<double>(k);
}

double kmem_activity_factor(const ExecutionPlan& plan) {
  // One weight read per in-use PE per strip pattern; averaged over the
  // pattern slots. For a stride-1 layer this is 1/(K*(W_pad-1)+2K-1),
  // i.e. the paper's ~1/KE (§V.C).
  double reads = 0.0;
  double cycles = 0.0;
  for (const SubConvPlan& sp : plan.subconvs) {
    for (const Strip& strip : sp.strips) {
      reads += static_cast<double>(sp.sub.taps()) /
               static_cast<double>(plan.taps);
      cycles += static_cast<double>(sp.slots_for(strip));
    }
  }
  return cycles == 0.0 ? 0.0 : reads / cycles;
}

LayerTraffic model_traffic(const ExecutionPlan& plan, std::int64_t batch) {
  CHAINNN_CHECK(batch > 0);
  const nn::ConvLayerParams& layer = plan.layer;
  const std::uint64_t wb = plan.memory.word_bytes;
  LayerTraffic t;

  // --- streamed pixels per channel pass -----------------------------------
  std::uint64_t streamed_per_channel = 0;  // real pixels, one m-group
  std::uint64_t max_strip_bytes = 0;
  for (const SubConvPlan& sp : plan.subconvs) {
    for (const Strip& strip : sp.strips) {
      const std::int64_t px =
          plan.array.dual_channel
              ? strip_real_pixels(layer, sp.sub, strip)
              : strip_real_pixels_single_channel(layer, sp.sub, strip);
      streamed_per_channel += static_cast<std::uint64_t>(px);
      max_strip_bytes = std::max(
          max_strip_bytes,
          static_cast<std::uint64_t>(
              strip_real_pixels(layer, sp.sub, strip)) *
              wb);
    }
  }

  const auto cg = static_cast<std::uint64_t>(layer.channels_per_group());
  const auto m_groups = static_cast<std::uint64_t>(plan.m_groups);
  const auto nb = static_cast<std::uint64_t>(batch);

  // --- iMemory --------------------------------------------------------------
  // Reads into the chain: every streamed pixel, for every channel of the
  // group, re-streamed for every m-group.
  t.imem_reads = streamed_per_channel * cg * m_groups * nb * wb;

  // --- DRAM ifmap + iMemory writes -------------------------------------------
  // With all kernels resident in kMemory and a strip fitting half of
  // iMemory (double buffering), strips are fetched once and re-streamed
  // across m-groups; otherwise each m-group refetches from DRAM.
  const bool strip_fits = max_strip_bytes * 2 <= plan.memory.imemory_bytes;
  const std::uint64_t fetch_factor =
      (plan.all_kernels_resident && strip_fits) ? 1 : m_groups;
  std::uint64_t streamed_once_per_channel = 0;  // without 1/K re-reps
  for (const SubConvPlan& sp : plan.subconvs)
    for (const Strip& strip : sp.strips)
      streamed_once_per_channel += static_cast<std::uint64_t>(
          strip_real_pixels(layer, sp.sub, strip));
  t.dram_ifmap = streamed_once_per_channel * cg * fetch_factor * nb * wb;
  t.imem_writes = t.dram_ifmap;  // everything fetched lands in iMemory

  // --- kMemory ----------------------------------------------------------------
  // Writes: kernels loaded once per batch (1 word/cycle, §V.B).
  t.kmem_writes = static_cast<std::uint64_t>(layer.weight_count()) * wb;
  t.dram_kernel = t.kmem_writes;
  // Reads: one weight per in-use PE per (strip, channel, m-group) pass.
  std::uint64_t pe_strip_loads = 0;
  for (const SubConvPlan& sp : plan.subconvs)
    pe_strip_loads += static_cast<std::uint64_t>(sp.strips.size()) *
                      static_cast<std::uint64_t>(plan.primitives) *
                      static_cast<std::uint64_t>(sp.sub.taps());
  t.kmem_reads = pe_strip_loads * cg * m_groups * nb * wb;

  // --- oMemory -----------------------------------------------------------------
  // One 16-bit partial write per window completion; a read too except on
  // the first accumulation pass of each output.
  const auto completions =
      static_cast<std::uint64_t>(plan.windows_per_image()) * nb;
  const auto outputs =
      static_cast<std::uint64_t>(layer.ofmap_pixels_per_image()) * nb;
  t.omem_writes = completions * wb;
  t.omem_reads = (completions - outputs) * wb;

  // --- DRAM ofmap ----------------------------------------------------------------
  t.dram_ofmap = outputs * wb;

  // --- DRAM psum spill (c_tiles > 1) ----------------------------------------------
  // Between channel residencies every output's partial is written out and
  // read back once.
  if (plan.c_tiles > 1)
    t.dram_psum =
        outputs * static_cast<std::uint64_t>(plan.c_tiles - 1) * 2 * wb;

  return t;
}

}  // namespace chainnn::dataflow
