// Property sweep: the cycle-accurate chain must be bit-exact against the
// golden convolution over a randomized grid of layer geometries covering
// every architectural feature (kernel sizes, stride phases, padding,
// groups, partial strips, partial m-groups, c-tiling, channel counts).
#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "common/rng.hpp"
#include "nn/golden.hpp"

namespace chainnn::chain {
namespace {

struct SweepCase {
  std::int64_t pes;
  std::int64_t kmem_words;
  std::int64_t batch, c, m, h, w, k, stride, pad, groups;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& s = info.param;
  return "pes" + std::to_string(s.pes) + "_n" + std::to_string(s.batch) +
         "c" + std::to_string(s.c) + "m" + std::to_string(s.m) + "h" +
         std::to_string(s.h) + "w" + std::to_string(s.w) + "k" +
         std::to_string(s.k) + "s" + std::to_string(s.stride) + "p" +
         std::to_string(s.pad) + "g" + std::to_string(s.groups);
}

class AcceleratorSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AcceleratorSweep, BitExactAndAccountingConsistent) {
  const SweepCase& sc = GetParam();
  nn::ConvLayerParams p;
  p.name = "sweep";
  p.batch = sc.batch;
  p.in_channels = sc.c;
  p.out_channels = sc.m;
  p.in_height = sc.h;
  p.in_width = sc.w;
  p.kernel = sc.k;
  p.stride = sc.stride;
  p.pad = sc.pad;
  p.groups = sc.groups;
  p.validate();

  AcceleratorConfig cfg;
  cfg.array.num_pes = sc.pes;
  cfg.array.kmem_words_per_pe = sc.kmem_words;

  Rng rng(static_cast<std::uint64_t>(sc.pes * 1000 + sc.k * 100 +
                                     sc.stride * 10 + sc.pad));
  Tensor<std::int16_t> x(Shape{p.batch, p.in_channels, p.in_height,
                               p.in_width});
  Tensor<std::int16_t> w(
      Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel});
  x.fill_random(rng, -64, 64);
  w.fill_random(rng, -16, 16);

  ChainAccelerator acc(cfg);
  const LayerRunResult res = acc.run_layer(p, x, w);

  // 1) Bit-exact psums vs the golden model.
  const Tensor<std::int64_t> golden = nn::conv2d_fixed_accum(p, x, w);
  ASSERT_EQ(res.accumulators, golden) << p.to_string();

  // 2) Work accounting: every MAC of the layer was performed.
  EXPECT_EQ(res.stats.macs_performed, p.macs_total());

  // 3) Cycle accounting matches the closed-form plan.
  EXPECT_EQ(res.stats.total_cycles(),
            dataflow::layer_cycles(res.plan, res.plan.array).total(p.batch));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AcceleratorSweep,
    ::testing::Values(
        // Kernel-size sweep (Table II sizes) on small images.
        SweepCase{576, 256, 1, 1, 2, 8, 8, 3, 1, 0, 1},
        SweepCase{576, 256, 1, 1, 2, 10, 10, 5, 1, 0, 1},
        SweepCase{576, 256, 1, 1, 1, 12, 12, 7, 1, 0, 1},
        SweepCase{576, 256, 1, 1, 1, 14, 14, 9, 1, 0, 1},
        SweepCase{576, 256, 1, 1, 1, 15, 15, 11, 1, 0, 1},
        // Rectangular image, padding variants.
        SweepCase{64, 64, 1, 2, 3, 9, 13, 3, 1, 1, 1},
        SweepCase{64, 64, 1, 2, 2, 11, 7, 3, 1, 2, 1},
        // Strides (phase decomposition) with and without padding.
        SweepCase{128, 64, 1, 2, 2, 13, 13, 3, 2, 0, 1},
        SweepCase{128, 64, 1, 1, 2, 17, 17, 5, 3, 1, 1},
        SweepCase{256, 64, 1, 1, 1, 23, 23, 11, 4, 0, 1},
        SweepCase{128, 64, 1, 1, 2, 9, 9, 3, 5, 0, 1},  // S > K
        // Groups, including group+stride combinations.
        SweepCase{64, 64, 1, 4, 4, 8, 8, 3, 1, 1, 2},
        SweepCase{64, 64, 1, 6, 6, 10, 10, 3, 2, 1, 3},
        // Batch > 1.
        SweepCase{64, 64, 3, 2, 3, 7, 7, 3, 1, 0, 1},
        // Many m-groups (m >> primitives): 64 PEs -> 7 primitives of 9.
        SweepCase{64, 64, 1, 2, 23, 8, 8, 3, 1, 0, 1},
        // c-tiling: channels exceed kMemory words per PE.
        SweepCase{64, 8, 1, 12, 2, 8, 8, 3, 1, 0, 1},
        // 1x1 kernels (LeNet conv4 case).
        SweepCase{64, 64, 1, 3, 5, 6, 6, 1, 1, 0, 1},
        // Tiny chain: single primitive.
        SweepCase{9, 64, 1, 2, 2, 7, 7, 3, 1, 0, 1},
        // E_h smaller than K_r (single partial strip).
        SweepCase{64, 64, 1, 1, 1, 5, 9, 5, 1, 0, 1},
        // K = image (single output).
        SweepCase{64, 64, 1, 2, 3, 4, 4, 4, 1, 0, 1}),
    case_name);

}  // namespace
}  // namespace chainnn::chain
