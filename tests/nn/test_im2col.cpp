#include "im2col.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/golden.hpp"

namespace chainnn::nn {
namespace {

TEST(Im2col, PatchMatrixShape) {
  ConvLayerParams p;
  p.in_channels = 2;
  p.out_channels = 1;
  p.in_height = 5;
  p.in_width = 6;
  p.kernel = 3;
  const Tensor<float> x(Shape{1, 2, 5, 6}, 1.0f);
  const Tensor<float> cols = im2col_image(p, x, 0, 0);
  EXPECT_EQ(cols.shape(), Shape({2 * 9, 3 * 4}));
}

TEST(Im2col, PaddingZeroFilled) {
  ConvLayerParams p;
  p.in_channels = 1;
  p.out_channels = 1;
  p.in_height = p.in_width = 3;
  p.kernel = 3;
  p.pad = 1;
  const Tensor<float> x(Shape{1, 1, 3, 3}, 1.0f);
  const Tensor<float> cols = im2col_image(p, x, 0, 0);
  // First output position (0,0): tap (0,0) reads padded (-1,-1) => 0.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  // Centre tap at centre output reads a real pixel.
  EXPECT_FLOAT_EQ(cols.at(4, 4), 1.0f);
}

// The central cross-check: im2col+GEMM must equal the direct golden conv
// on randomized layers, including stride / pad / groups.
struct Im2colCase {
  std::int64_t c, m, h, w, k, stride, pad, groups;
};

class Im2colEquivalence : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(Im2colEquivalence, MatchesDirectConv) {
  const Im2colCase& tc = GetParam();
  ConvLayerParams p;
  p.batch = 2;
  p.in_channels = tc.c;
  p.out_channels = tc.m;
  p.in_height = tc.h;
  p.in_width = tc.w;
  p.kernel = tc.k;
  p.stride = tc.stride;
  p.pad = tc.pad;
  p.groups = tc.groups;
  p.validate();

  Rng rng(123);
  Tensor<float> x(Shape{p.batch, p.in_channels, p.in_height, p.in_width});
  Tensor<float> w(
      Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel});
  Tensor<float> bias(Shape{p.out_channels});
  x.fill_random(rng, -1.0, 1.0);
  w.fill_random(rng, -1.0, 1.0);
  bias.fill_random(rng, -0.5, 0.5);

  const Tensor<float> direct = conv2d_float(p, x, w, &bias);
  const Tensor<float> gemm = conv2d_im2col(p, x, w, &bias);
  ASSERT_EQ(direct.shape(), gemm.shape());
  EXPECT_LE(max_abs_diff(direct, gemm), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colEquivalence,
    ::testing::Values(Im2colCase{1, 1, 6, 6, 3, 1, 0, 1},
                      Im2colCase{3, 4, 8, 8, 3, 1, 1, 1},
                      Im2colCase{2, 2, 9, 7, 5, 1, 2, 1},
                      Im2colCase{4, 6, 11, 11, 3, 2, 1, 2},
                      Im2colCase{6, 4, 13, 9, 5, 4, 0, 2},
                      Im2colCase{1, 2, 7, 7, 1, 1, 0, 1},
                      Im2colCase{2, 2, 12, 12, 7, 3, 3, 1}));

}  // namespace
}  // namespace chainnn::nn
