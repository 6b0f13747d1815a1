#include "dataflow/plan.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace chainnn::dataflow {

namespace {

constexpr std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

constexpr std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  return a / gcd64(a, b) * b;
}

// Strips of up to k_rows output rows, never crossing `row_block`
// boundaries so that every phase's strips tile the same oMemory-resident
// blocks.
std::vector<Strip> make_strips(std::int64_t out_rows, std::int64_t k_rows,
                               std::int64_t row_block) {
  std::vector<Strip> strips;
  for (std::int64_t b = 0; b < out_rows; b += row_block) {
    const std::int64_t b_end = std::min(b + row_block, out_rows);
    for (std::int64_t r = b; r < b_end; r += k_rows) {
      Strip s;
      s.first_out_row = r;
      s.out_rows = std::min(k_rows, b_end - r);
      strips.push_back(s);
    }
  }
  return strips;
}

}  // namespace

std::int64_t SubConvPlan::stream_slots_total() const {
  std::int64_t total = 0;
  for (const Strip& s : strips) total += slots_for(s);
  return total;
}

ExecutionPlan plan_layer(const nn::ConvLayerParams& layer,
                         const ArrayShape& array,
                         const mem::HierarchyConfig& memory) {
  layer.validate();
  ExecutionPlan plan;
  plan.layer = layer;
  plan.array = array;
  plan.memory = memory;

  const std::vector<SubConv> subs = decompose_strided(layer);
  const auto n_subs = static_cast<std::int64_t>(subs.size());

  // Primitive size: the largest sub-kernel (phase 0); smaller phases use
  // a prefix of each primitive's PEs with the remaining taps weighted
  // zero, so the kernel-residency structure stays uniform across phases.
  std::int64_t taps_max = 0;
  for (const SubConv& sc : subs) taps_max = std::max(taps_max, sc.taps());
  CHAINNN_CHECK_MSG(taps_max <= array.num_pes,
                    "kernel needs " << taps_max << " taps but chain has "
                                    << array.num_pes << " PEs");
  plan.taps = taps_max;
  plan.primitives = array.primitives_for(taps_max);

  const std::int64_t e_h = layer.out_height();
  const std::int64_t e_w = layer.out_width();

  // Row block: phases with different K_r must tile the same oMemory-
  // resident output rows, so blocks span lcm of the K_r values.
  std::int64_t block = 1;
  for (const SubConv& sc : subs) block = lcm64(block, sc.kernel_rows);
  plan.row_block = std::min(block, e_h);

  // oMemory must hold one row block of partials per resident kernel
  // (row_block rows x E_w 16-bit words); cap resident kernels to fit.
  const auto omem_words = static_cast<std::int64_t>(memory.omemory_bytes /
                                                    memory.word_bytes);
  const std::int64_t block_words = plan.row_block * e_w;
  CHAINNN_CHECK_MSG(block_words <= omem_words,
                    layer.name << ": one kernel's block partials ("
                               << block_words << " words) exceed oMemory");
  plan.primitives = std::min(plan.primitives, omem_words / block_words);
  CHAINNN_CHECK(plan.primitives >= 1);
  plan.active_pes = plan.primitives * taps_max;

  // Ofmap-channel tiles: all kernels resident in one pass must belong to
  // the same convolution group (they share the ifmap stream).
  const std::int64_t m_per_group = layer.out_channels_per_group();
  const std::int64_t groups_of_m =
      (m_per_group + plan.primitives - 1) / plan.primitives;
  plan.m_groups = groups_of_m * layer.groups;

  // Ifmap-channel tile bounded by kMemory: each PE stores one word per
  // (resident kernel, channel, phase).
  const std::int64_t max_c_tile =
      std::max<std::int64_t>(1, array.kmem_words_per_pe / n_subs);
  plan.c_tile = std::min(layer.channels_per_group(), max_c_tile);
  plan.c_tiles =
      (layer.channels_per_group() + plan.c_tile - 1) / plan.c_tile;

  plan.all_kernels_resident =
      plan.c_tiles == 1 &&
      plan.m_groups * plan.c_tile * n_subs <= array.kmem_words_per_pe;

  for (const SubConv& sc : subs) {
    SubConvPlan sp;
    sp.sub = sc;
    sp.out_rows = e_h;
    sp.out_cols = e_w;
    sp.strips = make_strips(e_h, sc.kernel_rows, plan.row_block);
    plan.subconvs.push_back(std::move(sp));
  }
  return plan;
}

LayerCycles layer_cycles(const ExecutionPlan& plan, const ArrayShape& array) {
  // One strip pattern per channel pass; single-channel PEs (Fig. 5(a))
  // need K_r*in_cols slots per output row.
  std::int64_t slots_per_channel = 0;
  for (const SubConvPlan& sp : plan.subconvs)
    slots_per_channel +=
        array.dual_channel
            ? sp.stream_slots_total()
            : sp.out_rows * sp.sub.kernel_rows * sp.sub.in_cols;
  LayerCycles c;
  c.kernel_load = plan.kernel_words_total();
  // m_group -> c_tile -> sub -> strip -> c.
  c.stream_per_image =
      plan.m_groups * plan.layer.channels_per_group() * slots_per_channel;
  // Channel delay through the chain (2 registers per PE), the psum chain
  // of the last primitive, and the extra MAC pipeline stages.
  c.drain = 2 * (plan.primitives - 1) * plan.taps + plan.taps +
            (array.pipeline_stages - 1);
  return c;
}

std::int64_t ExecutionPlan::passes_per_image() const {
  std::int64_t strips = 0;
  for (const SubConvPlan& sp : subconvs)
    strips += static_cast<std::int64_t>(sp.strips.size());
  return m_groups * layer.channels_per_group() * strips;
}

std::int64_t ExecutionPlan::windows_per_image() const {
  std::int64_t per_mc = 0;
  for (const SubConvPlan& sp : subconvs)
    per_mc += sp.out_rows * sp.out_cols;
  return per_mc * layer.out_channels * layer.channels_per_group();
}

double ExecutionPlan::utilization_per_image() const {
  const LayerCycles c = layer_cycles(*this, array);
  const double macs = static_cast<double>(layer.macs_per_image());
  const double cap = static_cast<double>(array.num_pes) *
                     static_cast<double>(c.stream_per_image + c.drain);
  return cap == 0.0 ? 0.0 : macs / cap;
}

std::int64_t ExecutionPlan::paper_model_cycles_per_image() const {
  // The idealized model the paper's Fig. 9 follows: MACs spread over the
  // PEs active for the square-K grouping, degraded by the stride (strided
  // layers sustain one window per S cycles) or by K for single-channel.
  const std::int64_t k2 = layer.kernel * layer.kernel;
  const std::int64_t active = array.active_pes_for(k2);
  CHAINNN_CHECK_MSG(active > 0, "kernel " << layer.kernel
                                          << " does not fit the chain");
  const std::int64_t penalty =
      array.dual_channel ? layer.stride : layer.stride * layer.kernel;
  return (layer.macs_per_image() * penalty + active - 1) / active;
}

double ExecutionPlan::paper_model_seconds_per_batch(
    std::int64_t batch) const {
  const std::int64_t cycles =
      kernel_words_total() + batch * paper_model_cycles_per_image();
  return static_cast<double>(cycles) / array.clock_hz;
}

std::string ExecutionPlan::to_string() const {
  std::ostringstream os;
  os << layer.name << ": " << primitives << " primitives x " << taps
     << " taps (" << active_pes << " active PEs), " << m_groups
     << " m-groups, c-tile " << c_tile << " x" << c_tiles << ", "
     << subconvs.size() << " phase(s)"
     << (all_kernels_resident ? ", kernels fully resident" : "");
  return os.str();
}

PlanKey PlanKey::from(const nn::ConvLayerParams& layer,
                      const ArrayShape& array,
                      const mem::HierarchyConfig& memory) {
  PlanKey k;
  k.in_channels = layer.in_channels;
  k.out_channels = layer.out_channels;
  k.in_height = layer.in_height;
  k.in_width = layer.in_width;
  k.kernel = layer.kernel;
  k.stride = layer.stride;
  k.groups = layer.groups;
  k.pad_rows = layer.pad_rows();
  k.pad_cols = layer.pad_cols();
  k.num_pes = array.num_pes;
  k.kmem_words_per_pe = array.kmem_words_per_pe;
  k.omemory_bytes = memory.omemory_bytes;
  k.word_bytes = memory.word_bytes;
  return k;
}

std::size_t PlanKey::hash() const {
  // FNV-1a over the fields; collisions only cost an equality probe.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(in_channels));
  mix(static_cast<std::uint64_t>(out_channels));
  mix(static_cast<std::uint64_t>(in_height));
  mix(static_cast<std::uint64_t>(in_width));
  mix(static_cast<std::uint64_t>(kernel));
  mix(static_cast<std::uint64_t>(stride));
  mix(static_cast<std::uint64_t>(groups));
  mix(static_cast<std::uint64_t>(pad_rows));
  mix(static_cast<std::uint64_t>(pad_cols));
  mix(static_cast<std::uint64_t>(num_pes));
  mix(static_cast<std::uint64_t>(kmem_words_per_pe));
  mix(omemory_bytes);
  mix(word_bytes);
  return static_cast<std::size_t>(h);
}

UtilizationRow utilization_row(const ArrayShape& array, std::int64_t kernel) {
  UtilizationRow row;
  row.kernel = kernel;
  row.pes_per_primitive = kernel * kernel;
  row.active_primitives = array.primitives_for(row.pes_per_primitive);
  row.active_pes = row.active_primitives * row.pes_per_primitive;
  row.efficiency = array.pe_utilization_for(row.pes_per_primitive);
  return row;
}

}  // namespace chainnn::dataflow
