#include "dataflow/plan.hpp"

#include <gtest/gtest.h>

#include "nn/models.hpp"
#include "report/paper_constants.hpp"

namespace chainnn::dataflow {
namespace {

nn::ConvLayerParams simple_layer(std::int64_t k, std::int64_t hw = 16,
                                 std::int64_t c = 2, std::int64_t m = 4) {
  nn::ConvLayerParams p;
  p.name = "L";
  p.in_channels = c;
  p.out_channels = m;
  p.in_height = p.in_width = hw;
  p.kernel = k;
  return p;
}

TEST(UtilizationRow, ReproducesPaperTable2) {
  // Table II's raw counts are rows of report::fidelity_ledger(). Here:
  // the efficiencies, including the 9x9 row where the paper prints 100%
  // but 567/576 is actually 98.4%.
  const ArrayShape array;
  // Efficiency values the paper prints correctly:
  EXPECT_DOUBLE_EQ(utilization_row(array, 3).efficiency, 1.0);
  EXPECT_NEAR(utilization_row(array, 5).efficiency, 0.998, 0.0005);
  EXPECT_NEAR(utilization_row(array, 7).efficiency, 0.936, 0.0005);
  EXPECT_NEAR(utilization_row(array, 11).efficiency, 0.840, 0.0005);
  // And the 9x9 discrepancy:
  EXPECT_NEAR(utilization_row(array, 9).efficiency, 567.0 / 576.0, 1e-12);
}

TEST(Plan, Stride1SingleSubConv) {
  const ExecutionPlan plan = plan_layer(simple_layer(3), ArrayShape{});
  ASSERT_EQ(plan.subconvs.size(), 1u);
  EXPECT_EQ(plan.taps, 9);
  EXPECT_EQ(plan.primitives, 64);
  EXPECT_EQ(plan.active_pes, 576);
  EXPECT_EQ(plan.row_block, 3);
  EXPECT_EQ(plan.c_tiles, 1);
}

TEST(Plan, StripsPartitionOutputRows) {
  // E_h = 14, K = 3 -> strips of 3,3,3,3,2.
  const ExecutionPlan plan = plan_layer(simple_layer(3), ArrayShape{});
  const auto& strips = plan.subconvs[0].strips;
  ASSERT_EQ(strips.size(), 5u);
  std::int64_t covered = 0;
  for (const Strip& s : strips) {
    EXPECT_EQ(s.first_out_row, covered);
    covered += s.out_rows;
    EXPECT_LE(s.out_rows, 3);
  }
  EXPECT_EQ(covered, 14);
  EXPECT_EQ(strips.back().out_rows, 2);
}

TEST(Plan, SlotsFormula) {
  const ExecutionPlan plan = plan_layer(simple_layer(3), ArrayShape{});
  const SubConvPlan& sp = plan.subconvs[0];
  // Full strip: K*(in_cols-1) + 2K-1 = 3*15 + 5 = 50.
  EXPECT_EQ(sp.slots_for(sp.strips[0]), 50);
  // Partial strip (2 rows): 3*15 + 4 = 49.
  EXPECT_EQ(sp.slots_for(sp.strips.back()), 49);
}

TEST(Plan, MGroupsRespectConvGroups) {
  nn::ConvLayerParams p = simple_layer(3, 16, 4, 256);
  p.groups = 2;
  const ExecutionPlan plan = plan_layer(p, ArrayShape{});
  // 128 ofmaps per group, 64 primitives -> 2 chunks per group x 2 groups.
  EXPECT_EQ(plan.m_groups, 4);
}

TEST(Plan, CTileLimitedByKmemWords) {
  nn::ConvLayerParams p = simple_layer(3, 16, 512, 64);
  const ExecutionPlan plan = plan_layer(p, ArrayShape{});
  EXPECT_EQ(plan.c_tile, 256);  // kMemory holds 256 words per PE
  EXPECT_EQ(plan.c_tiles, 2);
}

TEST(Plan, OmemoryCapsPrimitives) {
  // Wide output rows: 64 primitives x 3 rows x 224 cols of 16-bit
  // partials would blow the 25KB oMemory; the plan must cap residency.
  nn::ConvLayerParams p = simple_layer(3, 224, 4, 256);
  p.pad = 1;
  const ExecutionPlan plan = plan_layer(p, ArrayShape{});
  EXPECT_LT(plan.primitives, 64);
  const std::int64_t words = plan.primitives * plan.row_block * 224;
  EXPECT_LE(words * 2, 25 * 1024);
}

TEST(Plan, StridedLayerRowBlockIsLcm) {
  nn::ConvLayerParams p = simple_layer(11, 227, 3, 96);
  p.stride = 4;
  const ExecutionPlan plan = plan_layer(p, ArrayShape{});
  ASSERT_EQ(plan.subconvs.size(), 16u);
  EXPECT_EQ(plan.taps, 9);       // largest phase kernel 3x3
  EXPECT_EQ(plan.row_block, 6);  // lcm(3, 2)
}

TEST(Plan, KernelLoadCyclesEqualWeightCount) {
  for (const auto& layer : nn::alexnet().conv_layers) {
    const ExecutionPlan plan = plan_layer(layer, ArrayShape{});
    EXPECT_EQ(layer_cycles(plan, plan.array).kernel_load,
              layer.weight_count());
  }
}

TEST(Plan, PaperModelConv1IsStrideTimesBound) {
  // The idealized model is the paper's own, not the executed schedule
  // (report::fidelity_ledger() holds the executed Fig. 9 times). For
  // conv1 it charges S=4x the stride-1 bound and gives Fig. 9's time.
  const auto conv1 = nn::alexnet().conv_layers[0];
  const ExecutionPlan plan = plan_layer(conv1, ArrayShape{});
  const std::int64_t bound =
      (conv1.macs_per_image() + 483) / 484;  // 484 active PEs for 11x11
  EXPECT_NEAR(static_cast<double>(plan.paper_model_cycles_per_image()),
              4.0 * static_cast<double>(bound), 4.0);
  const double conv_ms =
      static_cast<double>(plan.paper_model_cycles_per_image()) * 128 /
      plan.array.clock_hz * 1e3;
  EXPECT_NEAR(conv_ms, report::kFig9[0].conv_ms, 0.01);
}

TEST(Plan, SingleChannelIsKTimesSlower) {
  ArrayShape dual;
  ArrayShape single;
  single.dual_channel = false;
  const nn::ConvLayerParams layer = simple_layer(3, 32);
  const ExecutionPlan pd = plan_layer(layer, dual);
  const ExecutionPlan ps = plan_layer(layer, single);
  // Fig. 5: single-channel PEs reach only 1/K of the streaming
  // throughput (drain latency is common to both, so compare streams).
  const double ratio =
      static_cast<double>(layer_cycles(ps, single).stream_per_image) /
      static_cast<double>(layer_cycles(pd, dual).stream_per_image);
  EXPECT_NEAR(ratio, 3.0, 0.25);
}

TEST(Plan, UtilizationBelowOneAboveHalf) {
  const ExecutionPlan plan =
      plan_layer(nn::alexnet().conv_layers[2], ArrayShape{});
  EXPECT_GT(plan.utilization_per_image(), 0.5);
  EXPECT_LE(plan.utilization_per_image(), 1.0);
}

TEST(Plan, RejectsOversizedKernel) {
  nn::ConvLayerParams p = simple_layer(25, 30);
  EXPECT_THROW((void)plan_layer(p, ArrayShape{}), std::logic_error);
}

TEST(Plan, WindowsPerImageCountsAllPasses) {
  const nn::ConvLayerParams layer = simple_layer(3, 16, 2, 4);
  const ExecutionPlan plan = plan_layer(layer, ArrayShape{});
  // 14x14 outputs x M4 x C2, one phase.
  EXPECT_EQ(plan.windows_per_image(), 14 * 14 * 4 * 2);
}

TEST(Plan, AllKernelsResidentSmallLayer) {
  const ExecutionPlan small = plan_layer(simple_layer(3, 16, 2, 4),
                                         ArrayShape{});
  EXPECT_TRUE(small.all_kernels_resident);
  const ExecutionPlan big =
      plan_layer(nn::alexnet().conv_layers[2], ArrayShape{});
  EXPECT_FALSE(big.all_kernels_resident);  // 6 m-groups x 256 channels
}

}  // namespace
}  // namespace chainnn::dataflow
