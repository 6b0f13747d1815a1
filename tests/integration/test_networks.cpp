// Integration: small whole-network pipelines (conv on the chain, pooling
// and activation on the host) verified end to end against a float-model
// pipeline, plus plan coverage for every model-zoo layer.
#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "common/rng.hpp"
#include "fixed/quantize.hpp"
#include "nn/golden.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"

namespace chainnn::chain {
namespace {

TEST(Networks, EveryZooLayerPlans) {
  const dataflow::ArrayShape array;
  for (const auto& net : nn::model_zoo()) {
    for (const auto& layer : net.conv_layers) {
      const auto plan = dataflow::plan_layer(layer, array);
      EXPECT_GE(plan.primitives, 1) << net.name << "/" << layer.name;
      EXPECT_GT(dataflow::layer_cycles(plan, array).stream_per_image, 0)
          << net.name << "/" << layer.name;
      EXPECT_GT(plan.utilization_per_image(), 0.0);
      EXPECT_LE(plan.utilization_per_image(), 1.0);
    }
  }
}

TEST(Networks, VggNeedsTwoChannelTiles) {
  const dataflow::ArrayShape array;
  const auto layers = nn::vgg16().conv_layers;
  // conv4_2: C=512 > 256 kMemory words per PE.
  const auto plan = dataflow::plan_layer(layers[8], array);
  EXPECT_EQ(plan.c_tiles, 2);
  // And oMemory caps resident kernels for the wide early layers.
  const auto p11 = dataflow::plan_layer(layers[0], array);
  EXPECT_LT(p11.primitives, 64);
}

// A LeNet-like two-conv pipeline, quantized and run on the chain with
// host pooling/ReLU, compared against the float pipeline.
TEST(Networks, TwoLayerPipelineTracksFloatModel) {
  nn::ConvLayerParams l1;
  l1.name = "conv1";
  l1.in_channels = 1;
  l1.out_channels = 4;
  l1.in_height = l1.in_width = 12;
  l1.kernel = 5;
  l1.validate();

  nn::ConvLayerParams l2;
  l2.name = "conv2";
  l2.in_channels = 4;
  l2.out_channels = 6;
  l2.in_height = l2.in_width = 4;  // after 2x2 pooling of 8x8
  l2.kernel = 3;
  l2.pad = 1;
  l2.validate();

  Rng rng(42);
  Tensor<float> x(Shape{1, 1, 12, 12});
  Tensor<float> w1(Shape{4, 1, 5, 5});
  Tensor<float> w2(Shape{6, 4, 3, 3});
  x.fill_random(rng, -1.0, 1.0);
  w1.fill_random(rng, -0.4, 0.4);
  w2.fill_random(rng, -0.4, 0.4);

  // --- float pipeline -----------------------------------------------------
  Tensor<float> f1 = nn::conv2d_float(l1, x, w1);
  nn::relu_inplace(f1);
  Tensor<float> fp = nn::max_pool(f1, nn::PoolParams{2, 2, 0});
  Tensor<float> f2 = nn::conv2d_float(l2, fp, w2);

  // --- fixed pipeline on the chain ----------------------------------------
  const fixed::FixedFormat fmt{8};
  auto quant = [&](const Tensor<float>& t) {
    const auto q = fixed::quantize(t.data(), fmt);
    return Tensor<std::int16_t>(t.shape(), q.raw);
  };
  AcceleratorConfig cfg;
  cfg.array.num_pes = 128;
  cfg.array.kmem_words_per_pe = 64;
  ChainAccelerator acc(cfg);

  const auto r1 = acc.run_layer(l1, quant(x), quant(w1));
  Tensor<std::int16_t> a1 = r1.ofmaps;
  nn::relu_inplace(a1);
  Tensor<std::int16_t> ap = nn::max_pool(a1, nn::PoolParams{2, 2, 0});
  const auto r2 = acc.run_layer(l2, ap, quant(w2));

  // Compare against float within quantization tolerance. Two conv layers
  // of ~25-36 taps each accumulate a few LSBs of rounding error.
  double worst = 0.0;
  for (std::int64_t i = 0; i < f2.num_elements(); ++i) {
    const double got =
        static_cast<double>(r2.ofmaps.at_flat(i)) / fmt.scale();
    worst = std::max(worst, std::abs(got - double{f2.at_flat(i)}));
  }
  EXPECT_LT(worst, 0.15);  // << signal range of ~8
}

TEST(Networks, Lenet1x1FinalLayerRuns) {
  const auto l = nn::lenet_mnist().conv_layers[3];  // 500->10, K=1
  Rng rng(7);
  Tensor<std::int16_t> x(Shape{1, l.in_channels, 1, 1});
  Tensor<std::int16_t> w(Shape{l.out_channels, l.in_channels, 1, 1});
  x.fill_random(rng, -32, 32);
  w.fill_random(rng, -8, 8);
  AcceleratorConfig cfg;  // default chain; c_tile limits to 256 channels
  ChainAccelerator acc(cfg);
  const auto res = acc.run_layer(l, x, w);
  EXPECT_EQ(res.accumulators, nn::conv2d_fixed_accum(l, x, w));
  EXPECT_EQ(res.plan.c_tiles, 2);  // 500 channels over 256-word kMemory
}

}  // namespace
}  // namespace chainnn::chain
