// Randomized differential testing: many random layer geometries and data
// distributions, chain simulator vs both golden references (direct fixed
// conv and float im2col within rounding tolerance). Seeds are fixed so
// failures reproduce; the generator prints the geometry on failure.
#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "common/rng.hpp"
#include "im2col.hpp"
#include "nn/golden.hpp"
#include "nn/sparsity.hpp"

namespace chainnn::chain {
namespace {

nn::ConvLayerParams random_layer(Rng& rng) {
  nn::ConvLayerParams p;
  p.name = "fuzz";
  p.batch = rng.uniform_int(1, 2);
  p.groups = rng.uniform_int(1, 3);
  p.in_channels = p.groups * rng.uniform_int(1, 3);
  p.out_channels = p.groups * rng.uniform_int(1, 4);
  p.kernel = rng.uniform_int(1, 6);
  p.stride = rng.uniform_int(1, 3);
  p.pad = rng.uniform_int(0, p.kernel - 1);
  // Input large enough for at least 2x2 outputs where possible.
  const std::int64_t min_hw =
      std::max<std::int64_t>(p.kernel, p.kernel + p.stride - 2 * p.pad);
  p.in_height = min_hw + rng.uniform_int(0, 10);
  p.in_width = min_hw + rng.uniform_int(0, 10);
  p.validate();
  return p;
}

class FuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeed, ChainMatchesGoldenOnRandomGeometry) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 6; ++round) {
    const nn::ConvLayerParams p = random_layer(rng);

    Tensor<std::int16_t> x(
        Shape{p.batch, p.in_channels, p.in_height, p.in_width});
    Tensor<std::int16_t> w(
        Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel});
    x.fill_random(rng, -128, 128);
    w.fill_random(rng, -32, 32);
    // Some rounds get sparse activations (post-ReLU-like distribution).
    if (round % 2 == 1) nn::inject_sparsity(x, 0.5, 99);

    AcceleratorConfig cfg;
    cfg.array.num_pes = 16 + 16 * rng.uniform_int(0, 8);
    cfg.array.kmem_words_per_pe = 16 << rng.uniform_int(0, 3);
    if (cfg.array.num_pes < p.kernel * p.kernel)
      cfg.array.num_pes = 576;  // ensure the kernel fits
    cfg.array.dual_channel = rng.uniform_int(0, 4) != 0;  // mostly dual

    ChainAccelerator acc(cfg);
    const LayerRunResult res = acc.run_layer(p, x, w);
    const Tensor<std::int64_t> golden = nn::conv2d_fixed_accum(p, x, w);
    ASSERT_EQ(res.accumulators, golden)
        << p.to_string() << " on " << cfg.array.to_string();
    ASSERT_EQ(res.stats.macs_performed, p.macs_total()) << p.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Range(0, 12));

TEST(FuzzFloatCrossCheck, ChainTracksIm2colWithinRounding) {
  // Independent second oracle: float im2col conv, compared through the
  // quantization model.
  Rng rng(4242);
  for (int round = 0; round < 4; ++round) {
    const nn::ConvLayerParams p = random_layer(rng);
    Tensor<float> xf(Shape{p.batch, p.in_channels, p.in_height, p.in_width});
    Tensor<float> wf(
        Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel});
    xf.fill_random(rng, -1.0, 1.0);
    wf.fill_random(rng, -0.25, 0.25);

    // Quantize to Q7.8 exactly representable values so fixed == float.
    Tensor<std::int16_t> x(xf.shape());
    Tensor<std::int16_t> w(wf.shape());
    for (std::int64_t i = 0; i < xf.num_elements(); ++i) {
      x.at_flat(i) = static_cast<std::int16_t>(
          std::lround(double{xf.at_flat(i)} * 256.0));
      xf.at_flat(i) = static_cast<float>(x.at_flat(i)) / 256.0f;
    }
    for (std::int64_t i = 0; i < wf.num_elements(); ++i) {
      w.at_flat(i) = static_cast<std::int16_t>(
          std::lround(double{wf.at_flat(i)} * 256.0));
      wf.at_flat(i) = static_cast<float>(w.at_flat(i)) / 256.0f;
    }

    AcceleratorConfig cfg;
    cfg.array.num_pes = 576;
    ChainAccelerator acc(cfg);
    const LayerRunResult res = acc.run_layer(p, x, w);
    const Tensor<float> ref = nn::conv2d_im2col(p, xf, wf);

    for (std::int64_t i = 0; i < ref.num_elements(); ++i) {
      const double got =
          static_cast<double>(res.accumulators.at_flat(i)) / 65536.0;
      ASSERT_NEAR(got, double{ref.at_flat(i)}, 2e-3) << p.to_string();
    }
  }
}

}  // namespace
}  // namespace chainnn::chain
