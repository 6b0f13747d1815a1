// Plan invariants over the entire model zoo and randomized geometries —
// the properties every legal ExecutionPlan must satisfy regardless of
// layer shape (strips tile rows exactly, capacities respected, work
// conservation, cycle formulas consistent between views).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/traffic.hpp"
#include "nn/models.hpp"

namespace chainnn::dataflow {
namespace {

void check_plan_invariants(const nn::ConvLayerParams& layer,
                           const ArrayShape& array,
                           const mem::HierarchyConfig& memory) {
  const ExecutionPlan plan = plan_layer(layer, array, memory);
  const std::string ctx = layer.to_string();

  // Structure.
  ASSERT_GE(plan.primitives, 1) << ctx;
  EXPECT_EQ(plan.active_pes, plan.primitives * plan.taps) << ctx;
  EXPECT_LE(plan.active_pes, array.num_pes) << ctx;
  EXPECT_GE(plan.row_block, 1) << ctx;

  // Phases partition the kernel taps.
  std::int64_t taps_total = 0;
  for (const SubConvPlan& sp : plan.subconvs) {
    EXPECT_LE(sp.sub.taps(), plan.taps) << ctx;
    taps_total += sp.sub.taps();
  }
  EXPECT_EQ(taps_total, layer.kernel * layer.kernel) << ctx;

  // Strips tile the output rows exactly, never crossing blocks.
  for (const SubConvPlan& sp : plan.subconvs) {
    std::int64_t covered = 0;
    for (const Strip& s : sp.strips) {
      EXPECT_EQ(s.first_out_row, covered) << ctx;
      EXPECT_GE(s.out_rows, 1) << ctx;
      EXPECT_LE(s.out_rows, sp.sub.kernel_rows) << ctx;
      const std::int64_t block_of_first = s.first_out_row / plan.row_block;
      const std::int64_t block_of_last =
          (s.first_out_row + s.out_rows - 1) / plan.row_block;
      EXPECT_EQ(block_of_first, block_of_last) << ctx;
      covered += s.out_rows;
    }
    EXPECT_EQ(covered, layer.out_height()) << ctx;
  }

  // Residency capacities.
  const auto n_subs = static_cast<std::int64_t>(plan.subconvs.size());
  EXPECT_LE(plan.c_tile * n_subs, array.kmem_words_per_pe) << ctx;
  const std::int64_t block_words =
      plan.primitives * plan.row_block * layer.out_width();
  EXPECT_LE(static_cast<std::uint64_t>(block_words) * memory.word_bytes,
            memory.omemory_bytes)
      << ctx;

  // Work conservation: windows x taps over phases = layer MACs minus the
  // padding taps (windows carry masked-out padding contributions as
  // zero-weight MACs, so >=).
  std::int64_t window_macs = 0;
  for (const SubConvPlan& sp : plan.subconvs)
    window_macs += sp.out_rows * sp.out_cols * sp.sub.taps();
  window_macs *= layer.out_channels * layer.channels_per_group();
  EXPECT_GE(window_macs, layer.macs_per_image()) << ctx;

  // Cycle views consistent.
  const LayerCycles cycles = layer_cycles(plan, plan.array);
  EXPECT_GT(cycles.stream_per_image, 0) << ctx;
  EXPECT_EQ(cycles.kernel_load, layer.weight_count()) << ctx;
  EXPECT_EQ(cycles.total(2) - cycles.total(1), cycles.stream_per_image)
      << ctx;
  EXPECT_GT(plan.utilization_per_image(), 0.0) << ctx;
  EXPECT_LE(plan.utilization_per_image(), 1.0) << ctx;

  // Traffic model sanity: all components positive and finite.
  const LayerTraffic t = model_traffic(plan, 2);
  EXPECT_GT(t.imem_reads, 0u) << ctx;
  EXPECT_GT(t.kmem_reads, 0u) << ctx;
  EXPECT_GT(t.omem_writes, 0u) << ctx;
  EXPECT_GE(t.omem_writes, t.omem_reads) << ctx;
  EXPECT_EQ(t.dram_kernel,
            static_cast<std::uint64_t>(layer.weight_count()) * 2)
      << ctx;
}

TEST(PlanProperties, HoldForEveryZooLayer) {
  const ArrayShape array;
  const mem::HierarchyConfig memory;
  for (const auto& net : nn::model_zoo())
    for (const auto& layer : net.conv_layers)
      check_plan_invariants(layer, array, memory);
}

TEST(PlanProperties, HoldForRandomGeometries) {
  Rng rng(31337);
  const mem::HierarchyConfig memory;
  for (int i = 0; i < 60; ++i) {
    nn::ConvLayerParams p;
    p.name = "rand" + std::to_string(i);
    p.groups = rng.uniform_int(1, 2);
    p.in_channels = p.groups * rng.uniform_int(1, 64);
    p.out_channels = p.groups * rng.uniform_int(1, 128);
    p.kernel = rng.uniform_int(1, 11);
    p.stride = rng.uniform_int(1, 4);
    p.pad = rng.uniform_int(0, p.kernel - 1);
    const std::int64_t min_hw = std::max<std::int64_t>(
        p.kernel, p.kernel + p.stride - 2 * p.pad);
    p.in_height = min_hw + rng.uniform_int(0, 60);
    p.in_width = min_hw + rng.uniform_int(0, 60);
    p.validate();

    ArrayShape array;
    array.num_pes = 64 * rng.uniform_int(1, 16);
    if (array.num_pes < p.kernel * p.kernel) continue;
    array.kmem_words_per_pe = 32 << rng.uniform_int(0, 3);
    check_plan_invariants(p, array, memory);
  }
}

TEST(PlanProperties, CyclesMonotoneInWork) {
  // More output channels can never take fewer cycles.
  const ArrayShape array;
  nn::ConvLayerParams p;
  p.in_channels = 8;
  p.in_height = p.in_width = 24;
  p.kernel = 3;
  std::int64_t prev = 0;
  for (const std::int64_t m : {8, 64, 128, 256}) {
    p.out_channels = m;
    const std::int64_t cycles =
        layer_cycles(plan_layer(p, array), array).total(1);
    EXPECT_GE(cycles, prev) << m;
    prev = cycles;
  }
}

TEST(PlanProperties, BiggerChainNeverSlower) {
  nn::ConvLayerParams p;
  p.in_channels = 16;
  p.out_channels = 128;
  p.in_height = p.in_width = 32;
  p.kernel = 3;
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t pes : {72, 144, 288, 576, 1152}) {
    ArrayShape array;
    array.num_pes = pes;
    const std::int64_t cycles =
        layer_cycles(plan_layer(p, array), array).total(1);
    EXPECT_LE(cycles, prev) << pes;
    prev = cycles;
  }
}

}  // namespace
}  // namespace chainnn::dataflow
