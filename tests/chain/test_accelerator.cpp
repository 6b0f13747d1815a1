#include "chain/accelerator.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/golden.hpp"

namespace chainnn::chain {
namespace {

// Small chain so tests exercise multiple m-groups quickly.
AcceleratorConfig small_config(std::int64_t pes = 64) {
  AcceleratorConfig cfg;
  cfg.array.num_pes = pes;
  cfg.array.kmem_words_per_pe = 64;
  return cfg;
}

nn::ConvLayerParams layer_of(std::int64_t n, std::int64_t c, std::int64_t m,
                             std::int64_t hw, std::int64_t k,
                             std::int64_t stride = 1, std::int64_t pad = 0,
                             std::int64_t groups = 1) {
  nn::ConvLayerParams p;
  p.name = "test";
  p.batch = n;
  p.in_channels = c;
  p.out_channels = m;
  p.in_height = p.in_width = hw;
  p.kernel = k;
  p.stride = stride;
  p.pad = pad;
  p.groups = groups;
  p.validate();
  return p;
}

struct TestData {
  Tensor<std::int16_t> ifmaps;
  Tensor<std::int16_t> kernels;
};

TestData make_data(const nn::ConvLayerParams& p, std::uint64_t seed) {
  Rng rng(seed);
  TestData d{
      Tensor<std::int16_t>(
          Shape{p.batch, p.in_channels, p.in_height, p.in_width}),
      Tensor<std::int16_t>(
          Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel})};
  d.ifmaps.fill_random(rng, -100, 100);
  d.kernels.fill_random(rng, -20, 20);
  return d;
}

TEST(Accelerator, BitExactVsGoldenBasic3x3) {
  const auto p = layer_of(1, 2, 3, 8, 3);
  const TestData d = make_data(p, 1);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  const Tensor<std::int64_t> golden =
      nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, golden);
}

TEST(Accelerator, BitExactWithPadding) {
  const auto p = layer_of(1, 2, 2, 7, 3, 1, 1);
  const TestData d = make_data(p, 2);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));
}

TEST(Accelerator, BitExactStride4LikeAlexNetConv1) {
  // Phase decomposition path: K=11, S=4 (16 sub-convolutions).
  const auto p = layer_of(1, 1, 2, 27, 11, 4);
  const TestData d = make_data(p, 3);
  ChainAccelerator acc(small_config(256));
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));
}

TEST(Accelerator, BitExactStride2WithPad) {
  const auto p = layer_of(1, 2, 2, 11, 5, 2, 2);
  const TestData d = make_data(p, 4);
  ChainAccelerator acc(small_config(128));
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));
}

TEST(Accelerator, BitExactGroupedConv) {
  const auto p = layer_of(1, 4, 6, 9, 3, 1, 1, 2);
  const TestData d = make_data(p, 5);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));
}

TEST(Accelerator, BitExactBatch) {
  const auto p = layer_of(3, 2, 2, 6, 3);
  const TestData d = make_data(p, 6);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));
}

TEST(Accelerator, BitExact1x1Kernel) {
  const auto p = layer_of(1, 3, 4, 5, 1);
  const TestData d = make_data(p, 7);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));
}

TEST(Accelerator, BitExactSingleChannelMode) {
  AcceleratorConfig cfg = small_config();
  cfg.array.dual_channel = false;
  const auto p = layer_of(1, 2, 2, 8, 3);
  const TestData d = make_data(p, 8);
  ChainAccelerator acc(cfg);
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));
}

TEST(Accelerator, SingleChannelCostsKTimesCycles) {
  const auto p = layer_of(1, 1, 1, 20, 3);
  const TestData d = make_data(p, 9);
  AcceleratorConfig dual = small_config();
  AcceleratorConfig single = small_config();
  single.array.dual_channel = false;
  ChainAccelerator a_dual(dual);
  ChainAccelerator a_single(single);
  const auto r_dual = a_dual.run_layer(p, d.ifmaps, d.kernels);
  const auto r_single = a_single.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(r_single.accumulators, r_dual.accumulators);
  const double ratio =
      static_cast<double>(r_single.stats.stream_cycles) /
      static_cast<double>(r_dual.stats.stream_cycles);
  EXPECT_NEAR(ratio, 3.0, 0.35);
}

TEST(Accelerator, MeasuredCyclesMatchPlanClosedForm) {
  for (const auto& p :
       {layer_of(1, 2, 3, 9, 3), layer_of(2, 3, 5, 12, 5, 1, 2),
        layer_of(1, 2, 2, 13, 11, 4), layer_of(1, 4, 4, 10, 3, 1, 1, 2)}) {
    const TestData d = make_data(p, 10);
    ChainAccelerator acc(small_config(256));
    const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
    const dataflow::LayerCycles cycles =
        dataflow::layer_cycles(res.plan, res.plan.array);
    EXPECT_EQ(res.stats.stream_cycles, cycles.stream_per_image * p.batch)
        << p.to_string();
    EXPECT_EQ(res.stats.drain_cycles, cycles.drain) << p.to_string();
    EXPECT_EQ(res.stats.kernel_load_cycles, cycles.kernel_load)
        << p.to_string();
    EXPECT_EQ(res.stats.total_cycles(), cycles.total(p.batch))
        << p.to_string();
  }
}

TEST(Accelerator, MeasuredTrafficMatchesAnalyticModel) {
  for (const auto& p :
       {layer_of(1, 2, 3, 9, 3), layer_of(2, 2, 4, 11, 5, 1, 2),
        layer_of(1, 2, 2, 13, 11, 4)}) {
    const TestData d = make_data(p, 11);
    ChainAccelerator acc(small_config(256));
    const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
    // All ten fields: DRAM bytes per operand, reads and writes per SRAM.
    EXPECT_EQ(res.traffic, dataflow::model_traffic(res.plan, p.batch))
        << p.to_string();
  }
}

TEST(Accelerator, OfmapsMatchGoldenRequantization) {
  const auto p = layer_of(1, 2, 3, 8, 3);
  const TestData d = make_data(p, 12);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  const nn::FixedConvResult golden = nn::conv2d_fixed(
      p, d.ifmaps, d.kernels, acc.config().ifmap_fmt,
      acc.config().kernel_fmt, acc.config().ofmap_fmt);
  EXPECT_EQ(res.ofmaps, golden.ofmaps);
}

TEST(Accelerator, BiasApplied) {
  const auto p = layer_of(1, 1, 2, 6, 3);
  const TestData d = make_data(p, 13);
  Tensor<std::int16_t> bias(Shape{2});
  bias.at_flat(0) = 100;
  bias.at_flat(1) = -50;
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels, &bias);
  const nn::FixedConvResult golden = nn::conv2d_fixed(
      p, d.ifmaps, d.kernels, acc.config().ifmap_fmt,
      acc.config().kernel_fmt, acc.config().ofmap_fmt, &bias);
  EXPECT_EQ(res.ofmaps, golden.ofmaps);
}

TEST(Accelerator, StagedPsumMatchesStagedReference) {
  AcceleratorConfig cfg = small_config();
  cfg.psum_storage = PsumStorage::kStaged16;
  const auto p = layer_of(1, 3, 2, 8, 3);
  const TestData d = make_data(p, 14);
  ChainAccelerator acc(cfg);
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  const Tensor<std::int64_t> ref =
      staged_reference(cfg, res.plan, d.ifmaps, d.kernels);
  EXPECT_EQ(res.accumulators, ref);
}

TEST(Accelerator, StagedEqualsWideWhenHeadroomSuffices) {
  // With small operands and a generous psum format, staged-16 partials
  // cannot clip, so both policies agree after requantization.
  AcceleratorConfig wide = small_config();
  AcceleratorConfig staged = small_config();
  staged.psum_storage = PsumStorage::kStaged16;
  // psum format: few fraction bits = lots of headroom.
  wide.psum_fmt = staged.psum_fmt = fixed::FixedFormat{4};
  wide.ofmap_fmt = staged.ofmap_fmt = fixed::FixedFormat{4};

  const auto p = layer_of(1, 2, 2, 7, 3);
  Rng rng(15);
  Tensor<std::int16_t> x(Shape{1, 2, 7, 7});
  Tensor<std::int16_t> w(Shape{2, 2, 3, 3});
  x.fill_random(rng, -16, 16);
  w.fill_random(rng, -4, 4);

  ChainAccelerator aw(wide);
  ChainAccelerator as(staged);
  const auto rw = aw.run_layer(p, x, w);
  const auto rs = as.run_layer(p, x, w);
  EXPECT_EQ(rw.ofmaps, rs.ofmaps);
}

TEST(Accelerator, UtilizationWithinBounds) {
  const auto p = layer_of(1, 4, 8, 16, 3);
  const TestData d = make_data(p, 16);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_GT(res.utilization(), 0.3);
  EXPECT_LE(res.utilization(), 1.0);
  EXPECT_GT(res.seconds(), 0.0);
  EXPECT_GT(res.achieved_ops_per_s(), 0.0);
}

TEST(Accelerator, WindowsCollectedMatchesPlan) {
  const auto p = layer_of(2, 3, 5, 10, 3);
  const TestData d = make_data(p, 17);
  ChainAccelerator acc(small_config());
  const LayerRunResult res = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(res.stats.windows_collected,
            res.plan.windows_per_image() * p.batch);
  EXPECT_EQ(res.stats.macs_performed, p.macs_total());
}

}  // namespace
}  // namespace chainnn::chain
