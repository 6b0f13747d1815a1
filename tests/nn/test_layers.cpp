#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace chainnn::nn {
namespace {

TEST(Relu, ClampsNegatives) {
  Tensor<float> t(Shape{4}, 0.0f);
  t.at_flat(0) = -1.5f;
  t.at_flat(1) = 2.0f;
  t.at_flat(2) = -0.0f;
  t.at_flat(3) = 0.25f;
  relu_inplace(t);
  EXPECT_FLOAT_EQ(t.at_flat(0), 0.0f);
  EXPECT_FLOAT_EQ(t.at_flat(1), 2.0f);
  EXPECT_FLOAT_EQ(t.at_flat(2), 0.0f);
  EXPECT_FLOAT_EQ(t.at_flat(3), 0.25f);
}

TEST(Relu, FixedPointVariant) {
  Tensor<std::int16_t> t(Shape{3});
  t.at_flat(0) = -300;
  t.at_flat(1) = 300;
  t.at_flat(2) = 0;
  relu_inplace(t);
  EXPECT_EQ(t.at_flat(0), 0);
  EXPECT_EQ(t.at_flat(1), 300);
  EXPECT_EQ(t.at_flat(2), 0);
}

TEST(MaxPool, TwoByTwo) {
  Tensor<float> in(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i)
    in.at_flat(i) = static_cast<float>(i);
  const PoolParams p{2, 2, 0};
  const Tensor<float> out = max_pool(in, p);
  ASSERT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), 7.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 0), 13.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 15.0f);
}

TEST(MaxPool, OverlappingAlexNetStyle) {
  // AlexNet pools 3x3 stride 2: 55 -> 27.
  Tensor<float> in(Shape{1, 1, 55, 55}, 1.0f);
  const PoolParams p{3, 2, 0};
  const Tensor<float> out = max_pool(in, p);
  EXPECT_EQ(out.shape(), Shape({1, 1, 27, 27}));
}

TEST(MaxPool, NegativeValuesSurvivePadding) {
  // All-negative input with padding: max must pick the real (negative)
  // values, not a zero injected by padding.
  Tensor<float> in(Shape{1, 1, 2, 2}, -5.0f);
  const PoolParams p{3, 2, 1};
  const Tensor<float> out = max_pool(in, p);
  for (std::int64_t i = 0; i < out.num_elements(); ++i)
    EXPECT_FLOAT_EQ(out.at_flat(i), -5.0f);
}

TEST(MaxPool, FixedPointMatchesFloatOrdering) {
  Rng rng(4);
  Tensor<std::int16_t> in(Shape{1, 2, 6, 6});
  in.fill_random(rng, -1000, 1000);
  const PoolParams p{2, 2, 0};
  const Tensor<std::int16_t> out = max_pool(in, p);
  // Spot-check one window.
  const std::int16_t expect = std::max(
      std::max(in.at(0, 1, 2, 2), in.at(0, 1, 2, 3)),
      std::max(in.at(0, 1, 3, 2), in.at(0, 1, 3, 3)));
  EXPECT_EQ(out.at(0, 1, 1, 1), expect);
}

TEST(AvgPool, UniformInput) {
  Tensor<float> in(Shape{1, 1, 4, 4}, 2.0f);
  const PoolParams p{2, 2, 0};
  const Tensor<float> out = avg_pool(in, p);
  for (std::int64_t i = 0; i < out.num_elements(); ++i)
    EXPECT_FLOAT_EQ(out.at_flat(i), 2.0f);
}

TEST(AvgPool, PaddingDilutes) {
  // One-pixel input, 2x2 window with pad 1: corner windows hold the pixel
  // plus three pad zeros -> value/4.
  Tensor<float> in(Shape{1, 1, 1, 1}, 4.0f);
  const PoolParams p{2, 1, 1};
  const Tensor<float> out = avg_pool(in, p);
  ASSERT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.0f);
}

TEST(Lrn, UnitInputScalesDown) {
  Tensor<float> in(Shape{1, 5, 2, 2}, 1.0f);
  const Tensor<float> out =
      lrn_across_channels(in, 5, 1e-4, 0.75, 2.0);
  // denom = (2 + 1e-4/5 * sumsq)^0.75 with sumsq <= 5.
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    EXPECT_GT(out.at_flat(i), 0.5f);
    EXPECT_LT(out.at_flat(i), 1.0f);
  }
}

TEST(Lrn, ChannelWindowClipped) {
  // Single channel: neighbourhood contains just itself.
  Tensor<float> in(Shape{1, 1, 1, 1}, 3.0f);
  const Tensor<float> out = lrn_across_channels(in, 5, 0.0, 0.75, 1.0);
  EXPECT_FLOAT_EQ(out.at_flat(0), 3.0f);  // alpha=0 -> denom=1
}

TEST(PoolParams, OutSize) {
  const PoolParams p{3, 2, 0};
  EXPECT_EQ(p.out_size(55), 27);
  EXPECT_EQ(p.out_size(13), 6);
}

TEST(PoolParams, RejectsDegenerateWindowsBeforeDividing) {
  // A zero stride used to divide by zero (SIGFPE) in out_size; a pad of
  // a whole window would let a window fall entirely on padding.
  for (const PoolParams bad : {PoolParams{2, 0, 0}, PoolParams{0, 2, 0},
                               PoolParams{2, -1, 0}, PoolParams{2, 2, -1},
                               PoolParams{2, 2, 2}, PoolParams{3, 1, 5}}) {
    EXPECT_THROW(bad.validate(), std::logic_error);
    EXPECT_THROW((void)bad.out_size(8), std::logic_error);
  }
  EXPECT_NO_THROW((PoolParams{3, 2, 2}.validate()));
}

TEST(MaxPool, ZeroStrideThrows) {
  const Tensor<std::int16_t> in(Shape{1, 1, 4, 4}, std::int16_t{7});
  EXPECT_THROW((void)max_pool(in, PoolParams{2, 0, 0}), std::logic_error);
  const Tensor<float> f(Shape{1, 1, 4, 4}, 1.0f);
  EXPECT_THROW((void)max_pool(f, PoolParams{2, 0, 0}), std::logic_error);
  EXPECT_THROW((void)avg_pool(f, PoolParams{2, 0, 0}), std::logic_error);
}

}  // namespace
}  // namespace chainnn::nn
