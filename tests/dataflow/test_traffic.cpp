#include "dataflow/traffic.hpp"

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

// Strip pixels counting materialized zero-padding as streamed words: the
// strip's decimated rows, clipped to the grid, times its columns.
std::int64_t strip_padded_pixels(const SubConv& sub, const Strip& strip) {
  std::int64_t rows = 0;
  const std::int64_t last_row =
      strip.first_out_row + strip.out_rows + sub.kernel_rows - 2;
  for (std::int64_t r = strip.first_out_row; r <= last_row; ++r)
    if (r >= 0 && r < sub.in_rows) ++rows;
  return rows * sub.in_cols;
}

TEST(StripRealPixels, NoPaddingCountsFullStrip) {
  const ExecutionPlan plan = plan_layer(simple_layer(3), ArrayShape{});
  const SubConvPlan& sp = plan.subconvs[0];
  // Full strip: 5 rows x 16 cols.
  EXPECT_EQ(strip_real_pixels(plan.layer, sp.sub, sp.strips[0]), 5 * 16);
  // Last strip (2 out rows): 4 rows of which 14+... rows 12..15 all real.
  EXPECT_EQ(strip_real_pixels(plan.layer, sp.sub, sp.strips.back()), 4 * 16);
}

TEST(StripRealPixels, PaddingExcluded) {
  nn::ConvLayerParams p = simple_layer(3, 16);
  p.pad = 1;
  const ExecutionPlan plan = plan_layer(p, ArrayShape{});
  const SubConvPlan& sp = plan.subconvs[0];
  // First strip spans padded rows 0..4 = 1 pad + 4 real; cols: 1 pad +
  // 16 real + 1 pad -> 16 real cols.
  EXPECT_EQ(strip_real_pixels(p, sp.sub, sp.strips[0]), 4 * 16);
}

TEST(IfmapReuse, MatchesPaperFactor) {
  // §V.C: ifmap pixels are read (2K-1)/K times per m-group pass.
  const ExecutionPlan p3 = plan_layer(simple_layer(3), ArrayShape{});
  EXPECT_DOUBLE_EQ(ifmap_reuse_factor(p3), 5.0 / 3.0);
  const ExecutionPlan p5 = plan_layer(simple_layer(5, 20), ArrayShape{});
  EXPECT_DOUBLE_EQ(ifmap_reuse_factor(p5), 9.0 / 5.0);
}

TEST(Traffic, OmemoryAccountsReadModifyWrite) {
  const nn::ConvLayerParams layer = simple_layer(3, 16, 2, 4);
  const ExecutionPlan plan = plan_layer(layer, ArrayShape{});
  const LayerTraffic t = model_traffic(plan, 1);
  const std::uint64_t completions = 14 * 14 * 4 * 2;
  const std::uint64_t outputs = 14 * 14 * 4;
  EXPECT_EQ(t.omem_writes, completions * 2);
  EXPECT_EQ(t.omem_reads, (completions - outputs) * 2);
}

TEST(Traffic, KernelBytesOncePerBatch) {
  const nn::ConvLayerParams layer = simple_layer(3, 16, 2, 4);
  const ExecutionPlan plan = plan_layer(layer, ArrayShape{});
  const LayerTraffic t1 = model_traffic(plan, 1);
  const LayerTraffic t4 = model_traffic(plan, 4);
  EXPECT_EQ(t1.dram_kernel,
            static_cast<std::uint64_t>(layer.weight_count()) * 2);
  EXPECT_EQ(t4.dram_kernel, t1.dram_kernel);  // batch-independent
  EXPECT_EQ(t4.imem_reads, 4 * t1.imem_reads);  // streaming scales
}

TEST(Traffic, PsumSpillOnlyWithMultipleCTiles) {
  const ExecutionPlan one = plan_layer(simple_layer(3, 16, 2, 4),
                                       ArrayShape{});
  EXPECT_EQ(model_traffic(one, 1).dram_psum, 0u);
  const ExecutionPlan two = plan_layer(simple_layer(3, 16, 512, 64),
                                       ArrayShape{});
  ASSERT_EQ(two.c_tiles, 2);
  const LayerTraffic t = model_traffic(two, 1);
  EXPECT_EQ(t.dram_psum, static_cast<std::uint64_t>(14 * 14 * 64) * 2 * 2);
}

TEST(Traffic, Table4ShapeReproduced) {
  // Table IV (batch 4): our counting rules must reproduce the paper's
  // *shape*: oMemory dominates, kMemory next, iMemory and DRAM smallest;
  // kMemory reads within 30% of the printed totals for the stride-1
  // layers. report::fidelity_ledger() holds every layer's four cells,
  // conv1 included, each with its own tolerance and cause.
  const auto layers = nn::alexnet().conv_layers;
  for (std::size_t i = 1; i < layers.size(); ++i) {  // conv2..conv5
    const ExecutionPlan plan = plan_layer(layers[i], ArrayShape{});
    const LayerTraffic t = model_traffic(plan, 4);
    const double mb = 1024.0 * 1024.0;
    const auto& paper = report::kTable4[i];
    EXPECT_NEAR(static_cast<double>(t.kmem_reads) / mb / paper.kmem_mb, 1.0,
                0.30)
        << layers[i].name << " kMemory";
    // Ordering within the row:
    EXPECT_GT(t.omem_total(), t.kmem_total());
    EXPECT_GT(t.kmem_total(), t.imem_reads / 4);  // kMem >> per-image iMem
  }
}

TEST(Traffic, Conv3IMemoryNearPaper) {
  const ExecutionPlan plan =
      plan_layer(nn::alexnet().conv_layers[2], ArrayShape{});
  const double mb = 1024.0 * 1024.0;
  // With materialized padding streamed from iMemory (the accounting the
  // paper's 4.8 MB corresponds to): every strip's rows x columns of the
  // padded grid, per channel, m-group and image, 2 bytes each.
  std::uint64_t padded_per_channel = 0;
  for (const SubConvPlan& sp : plan.subconvs)
    for (const Strip& strip : sp.strips)
      padded_per_channel +=
          static_cast<std::uint64_t>(strip_padded_pixels(sp.sub, strip));
  const std::uint64_t padded_reads =
      padded_per_channel *
      static_cast<std::uint64_t>(plan.layer.channels_per_group() *
                                 plan.m_groups * 4) *
      2;
  EXPECT_NEAR(static_cast<double>(padded_reads) / mb, 4.8, 0.8);
  // With on-the-fly padding (our streamer's default) ~30% fewer reads:
  const LayerTraffic tr = model_traffic(plan, 4);
  EXPECT_NEAR(static_cast<double>(tr.imem_reads) / mb, 3.2, 0.3);
}

TEST(Traffic, SingleChannelStreamsKTimesMore) {
  ArrayShape single;
  single.dual_channel = false;
  const nn::ConvLayerParams layer = simple_layer(3, 31);
  const ExecutionPlan pd = plan_layer(layer, ArrayShape{});
  const ExecutionPlan ps = plan_layer(layer, single);
  const LayerTraffic td = model_traffic(pd, 1);
  const LayerTraffic ts = model_traffic(ps, 1);
  const double ratio = static_cast<double>(ts.imem_reads) /
                       static_cast<double>(td.imem_reads);
  EXPECT_GT(ratio, 1.5);  // row-at-a-time replays rows ~K/(2K/K)...
  EXPECT_LT(ratio, 3.1);
}

}  // namespace
}  // namespace chainnn::dataflow
