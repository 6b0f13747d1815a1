// Integration: AlexNet layers on the cycle-accurate chain at reduced
// spatial scale (full-size AlexNet runs live in the benches; these tests
// keep ctest fast while still covering every layer's parameter mix —
// stride 4, groups, channel counts — end to end against the golden model.
#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "common/rng.hpp"
#include "nn/golden.hpp"
#include "nn/models.hpp"

namespace chainnn::chain {
namespace {

// Shrinks a layer spatially (keeps kernel/stride/groups, trims channels).
nn::ConvLayerParams shrink(const nn::ConvLayerParams& p, std::int64_t hw,
                           std::int64_t c_div, std::int64_t m_div) {
  nn::ConvLayerParams q = p;
  q.in_height = q.in_width = hw;
  q.in_channels = std::max<std::int64_t>(p.groups, p.in_channels / c_div);
  q.out_channels = std::max<std::int64_t>(p.groups, p.out_channels / m_div);
  // Keep divisibility by groups.
  q.in_channels -= q.in_channels % q.groups;
  q.out_channels -= q.out_channels % q.groups;
  if (q.in_channels == 0) q.in_channels = q.groups;
  if (q.out_channels == 0) q.out_channels = q.groups;
  q.validate();
  return q;
}

class AlexNetLayer : public ::testing::TestWithParam<int> {};

TEST_P(AlexNetLayer, BitExactOnChain) {
  const int idx = GetParam();
  const auto full = nn::alexnet().conv_layers[static_cast<std::size_t>(idx)];
  // conv1 is 227x227; shrink to 27x27 (still exercises K=11, S=4).
  const std::int64_t hw = idx == 0 ? 27 : 15;
  const nn::ConvLayerParams p = shrink(full, hw, 8, 16);

  Rng rng(static_cast<std::uint64_t>(idx) + 100);
  Tensor<std::int16_t> x(Shape{1, p.in_channels, p.in_height, p.in_width});
  Tensor<std::int16_t> w(
      Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel});
  x.fill_random(rng, -64, 64);
  w.fill_random(rng, -16, 16);

  AcceleratorConfig cfg;  // paper-default 576-PE chain
  ChainAccelerator acc(cfg);
  const LayerRunResult res = acc.run_layer(p, x, w);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(p, x, w))
      << p.to_string();
  EXPECT_EQ(res.stats.macs_performed, p.macs_total());
}

INSTANTIATE_TEST_SUITE_P(Layers, AlexNetLayer, ::testing::Range(0, 5));

TEST(AlexNetPlan, PaperScaleNumbers) {
  // Plan-level checks at FULL AlexNet scale (no simulation needed).
  const dataflow::ArrayShape array;
  const auto layers = nn::alexnet().conv_layers;

  // conv3: 64 primitives, 576 active PEs, 6 m-groups, channels fit.
  const auto p3 = dataflow::plan_layer(layers[2], array);
  EXPECT_EQ(p3.primitives, 64);
  EXPECT_EQ(p3.active_pes, 576);
  EXPECT_EQ(p3.m_groups, 6);
  EXPECT_EQ(p3.c_tile, 256);

  // conv2 (grouped): 23 primitives of 25 PEs, 12 m-groups.
  const auto p2 = dataflow::plan_layer(layers[1], array);
  EXPECT_EQ(p2.primitives, 23);
  EXPECT_EQ(p2.m_groups, 12);

  // conv1 (strided): phase-decomposed to 3x3-max primitives.
  const auto p1 = dataflow::plan_layer(layers[0], array);
  EXPECT_EQ(p1.taps, 9);
  EXPECT_EQ(p1.subconvs.size(), 16u);
  EXPECT_EQ(p1.row_block, 6);
}

TEST(AlexNetPlan, KernelResidencyNeverExceedsKmemory) {
  const dataflow::ArrayShape array;
  for (const auto& layer : nn::alexnet().conv_layers) {
    const auto plan = dataflow::plan_layer(layer, array);
    const auto n_subs = static_cast<std::int64_t>(plan.subconvs.size());
    EXPECT_LE(plan.c_tile * n_subs, array.kmem_words_per_pe)
        << layer.name;
  }
}

TEST(AlexNetPlan, OmemoryFootprintFits) {
  const dataflow::ArrayShape array;
  for (const auto& layer : nn::alexnet().conv_layers) {
    const auto plan = dataflow::plan_layer(layer, array);
    const std::int64_t words =
        plan.primitives * plan.row_block * layer.out_width();
    EXPECT_LE(words * 2, 25 * 1024) << layer.name;
  }
}

TEST(AlexNetPlan, TotalBatchTimeOrderOfPaper) {
  // Our schedule's AlexNet batch-128 conv time should land within ~35% of
  // the paper's total (our conv1 runs faster via phase decomposition,
  // conv2-5 slightly slower via explicit strip overheads).
  const dataflow::ArrayShape array;
  double total_ms = 0.0;
  for (const auto& layer : nn::alexnet().conv_layers) {
    const auto plan = dataflow::plan_layer(layer, array);
    total_ms += static_cast<double>(
                    dataflow::layer_cycles(plan, array).total(128)) /
                array.clock_hz * 1e3;
  }
  EXPECT_GT(total_ms, 250.0);
  EXPECT_LT(total_ms, 530.0);  // paper: 393ms (Fig. 9 sum)
}

}  // namespace
}  // namespace chainnn::chain
