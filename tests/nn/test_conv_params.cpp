#include "nn/conv_params.hpp"

#include <gtest/gtest.h>

namespace chainnn::nn {
namespace {

ConvLayerParams basic() {
  ConvLayerParams p;
  p.name = "t";
  p.in_channels = 4;
  p.out_channels = 8;
  p.in_height = 10;
  p.in_width = 12;
  p.kernel = 3;
  return p;
}

TEST(ConvParams, OutputSizeNoPad) {
  const ConvLayerParams p = basic();
  EXPECT_EQ(p.out_height(), 8);
  EXPECT_EQ(p.out_width(), 10);
}

TEST(ConvParams, OutputSizeWithPadAndStride) {
  ConvLayerParams p = basic();
  p.pad = 1;
  EXPECT_EQ(p.out_height(), 10);
  p.stride = 2;
  EXPECT_EQ(p.out_height(), 5);  // (10+2-3)/2+1
  EXPECT_EQ(p.out_width(), 6);
}

TEST(ConvParams, AlexNetConv1Geometry) {
  ConvLayerParams p;
  p.in_channels = 3;
  p.out_channels = 96;
  p.in_height = p.in_width = 227;
  p.kernel = 11;
  p.stride = 4;
  EXPECT_EQ(p.out_height(), 55);
  EXPECT_EQ(p.macs_per_image(), 55LL * 55 * 96 * 11 * 11 * 3);
}

TEST(ConvParams, GroupedChannels) {
  ConvLayerParams p = basic();
  p.groups = 2;
  EXPECT_EQ(p.channels_per_group(), 2);
  EXPECT_EQ(p.out_channels_per_group(), 4);
  // Grouping divides the per-output MACs by G.
  EXPECT_EQ(p.macs_per_image(),
            p.out_height() * p.out_width() * p.out_channels * 9 * 2);
}

TEST(ConvParams, WeightCount) {
  ConvLayerParams p = basic();
  EXPECT_EQ(p.weight_count(), 8 * 4 * 9);
  p.groups = 2;
  EXPECT_EQ(p.weight_count(), 8 * 2 * 9);
}

TEST(ConvParams, MacsTotalScalesWithBatch) {
  ConvLayerParams p = basic();
  p.batch = 4;
  EXPECT_EQ(p.macs_total(), 4 * p.macs_per_image());
}

TEST(ConvParams, ValidateRejectsBadGroups) {
  ConvLayerParams p = basic();
  p.groups = 3;  // 4 % 3 != 0
  EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(ConvParams, ValidateRejectsKernelLargerThanPaddedInput) {
  ConvLayerParams p = basic();
  p.kernel = 13;
  EXPECT_THROW(p.validate(), std::logic_error);
  p.pad = 2;  // 10 + 4 >= 13
  EXPECT_NO_THROW(p.validate());
}

TEST(ConvParams, PixelCounts) {
  const ConvLayerParams p = basic();
  EXPECT_EQ(p.ifmap_pixels_per_image(), 4 * 10 * 12);
  EXPECT_EQ(p.ofmap_pixels_per_image(), 8 * 8 * 10);
}

TEST(ConvParams, TotalMacsHelper) {
  const std::vector<ConvLayerParams> layers = {basic(), basic()};
  EXPECT_EQ(total_macs_per_image(layers), 2 * basic().macs_per_image());
}

}  // namespace
}  // namespace chainnn::nn
