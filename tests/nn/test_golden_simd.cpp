// The vectorized analytical MAC kernel (nn/conv_kernel.hpp) against the
// scalar sticky-saturation oracle it must match bit-for-bit.
//
// The contract under test: whenever the saturation-free proof admits a
// layer, the clamp-free fast kernel computes exactly what
// conv2d_fixed_accum computes; whenever saturation is actually possible
// the bound check must say so and the dispatcher must route to the
// scalar path (whose sticky clamps the fast kernel cannot reproduce).
#include "nn/conv_kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "fixed/fixed16.hpp"
#include "nn/golden.hpp"

namespace chainnn::nn {
namespace {

// Smallest tap count the static bound rejects: one more than
// kMax / 2^30 (the worst-case |product| of two int16 operands).
constexpr std::int64_t kStaticTapLimit =
    fixed::Accumulator48::kMax / (std::int64_t{1} << 30);  // 131071

// A 1x1-output layer with more taps than the static bound admits:
// C * K * K = 14564 * 9 = 131076 > 131071.
ConvLayerParams oversized_taps_layer() {
  ConvLayerParams p;
  p.name = "oversized";
  p.in_channels = 14564;
  p.out_channels = 1;
  p.in_height = p.in_width = 3;
  p.kernel = 3;
  p.validate();
  return p;
}

TEST(ConvKernelBound, StaticBoundMath) {
  ConvLayerParams p;
  p.in_height = p.in_width = 64;
  p.kernel = 3;
  // VGG's deepest conv: 512 * 3 * 3 = 4608 taps — far inside the bound.
  p.in_channels = 512;
  p.out_channels = 512;
  EXPECT_TRUE(saturation_free(p));

  // Exactly at the limit: taps == kMax / 2^30 is still provably safe.
  ConvLayerParams edge;
  edge.kernel = 1;
  edge.in_height = edge.in_width = 1;
  edge.in_channels = kStaticTapLimit;
  edge.out_channels = 1;
  EXPECT_TRUE(saturation_free(edge));
  edge.in_channels = kStaticTapLimit + 1;
  EXPECT_FALSE(saturation_free(edge));

  // Tighter operand magnitudes stretch the admissible tap count, and a
  // provably-zero operand admits anything.
  EXPECT_TRUE(saturation_free(edge, 1, 1));
  EXPECT_TRUE(saturation_free(edge, 0, 32768));
  EXPECT_FALSE(saturation_free(edge, 32768, 32768));
}

TEST(ConvKernelProperty, FastMatchesScalarOracleOnRandomLayers) {
  // Randomized layer geometries (kernel, stride, asymmetric padding,
  // groups, batch) with full-range int16 operands. Tap counts stay tiny,
  // so the static proof holds and the fast kernel must reproduce the
  // sticky-clamp oracle exactly — every clamp is provably dead.
  Rng rng(2024);
  for (int iter = 0; iter < 60; ++iter) {
    ConvLayerParams p;
    p.name = "prop";
    p.groups = rng.uniform_int(1, 2);
    p.kernel = rng.uniform_int(1, 5);
    p.stride = rng.uniform_int(1, 3);
    p.pad_h = rng.uniform_int(0, 2);
    p.pad_w = rng.uniform_int(0, 2);
    p.in_channels = p.groups * rng.uniform_int(1, 4);
    p.out_channels = p.groups * rng.uniform_int(1, 4);
    p.batch = rng.uniform_int(1, 2);
    // Keep at least one output site: H + 2*pad >= K.
    const std::int64_t lo =
        std::max<std::int64_t>(1, p.kernel - 2 * p.pad_h);
    p.in_height = rng.uniform_int(lo, 12);
    const std::int64_t lo_w =
        std::max<std::int64_t>(1, p.kernel - 2 * p.pad_w);
    p.in_width = rng.uniform_int(lo_w, 12);
    p.validate();
    ASSERT_TRUE(saturation_free(p));

    Tensor<std::int16_t> x(
        Shape{p.batch, p.in_channels, p.in_height, p.in_width});
    Tensor<std::int16_t> w(Shape{p.out_channels, p.channels_per_group(),
                                 p.kernel, p.kernel});
    x.fill_random(rng, -32768, 32767);
    w.fill_random(rng, -32768, 32767);

    const Tensor<std::int64_t> oracle = conv2d_fixed_accum(p, x, w);
    const Tensor<std::int64_t> fast = conv2d_fixed_accum_fast(p, x, w);
    ASSERT_EQ(oracle.shape(), fast.shape());
    for (std::int64_t i = 0; i < oracle.num_elements(); ++i)
      ASSERT_EQ(oracle.at_flat(i), fast.at_flat(i))
          << "site " << i << " of " << p.to_string();

    ConvDispatch d;
    const Tensor<std::int64_t> routed =
        conv2d_fixed_accum_dispatch(p, x, w, &d);
    EXPECT_EQ(d.fast, simd_kernel_enabled());
    EXPECT_FALSE(d.data_scanned);
    for (std::int64_t i = 0; i < oracle.num_elements(); ++i)
      ASSERT_EQ(oracle.at_flat(i), routed.at_flat(i)) << i;
  }
}

TEST(ConvKernelDispatch, AdversarialSaturatingTapsRouteToScalar) {
  // All taps at the int16 extreme: every product is (-2^15)^2 = 2^30 and
  // the running sum crosses kMax mid-accumulation. The operand scan
  // cannot tighten anything (the data really is worst-case), so the
  // dispatcher must reject the fast path and take the scalar oracle.
  const ConvLayerParams p = oversized_taps_layer();
  const Tensor<std::int16_t> x(
      Shape{1, p.in_channels, p.in_height, p.in_width},
      std::int16_t{-32768});
  Tensor<std::int16_t> w(Shape{1, p.in_channels, 3, 3},
                         std::int16_t{-32768});
  // A few trailing positive-weight taps (product ~ -2^30) after the
  // clamp engages: the sticky-saturated result now differs from the
  // unclamped sum, so a fast-path mis-route would be visible.
  const std::int64_t taps = p.in_channels * 9;
  for (std::int64_t i = taps - 4; i < taps; ++i)
    w.at_flat(i) = std::int16_t{32767};

  std::int64_t unclamped = 0;
  for (std::int64_t i = 0; i < taps; ++i)
    unclamped += static_cast<std::int64_t>(
        static_cast<std::int32_t>(x.at_flat(i)) *
        static_cast<std::int32_t>(w.at_flat(i)));

  ConvDispatch d;
  const Tensor<std::int64_t> routed =
      conv2d_fixed_accum_dispatch(p, x, w, &d);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.data_scanned, simd_kernel_enabled());

  const Tensor<std::int64_t> oracle = conv2d_fixed_accum(p, x, w);
  ASSERT_EQ(routed.num_elements(), 1);
  EXPECT_EQ(routed.at_flat(0), oracle.at_flat(0));
  // The clamp genuinely fired: sticky saturation lost information the
  // unclamped sum kept.
  EXPECT_NE(oracle.at_flat(0), unclamped);
}

TEST(ConvKernelDispatch, OperandScanAdmitsSmallMagnitudes) {
  // Same oversized-tap geometry, but the data is tiny: the static bound
  // fails, the scan proves |x|,|w| <= 2 and re-admits the fast path.
  const ConvLayerParams p = oversized_taps_layer();
  Rng rng(7);
  Tensor<std::int16_t> x(
      Shape{1, p.in_channels, p.in_height, p.in_width});
  Tensor<std::int16_t> w(Shape{1, p.in_channels, 3, 3});
  x.fill_random(rng, -2, 2);
  w.fill_random(rng, -2, 2);

  ConvDispatch d;
  const Tensor<std::int64_t> routed =
      conv2d_fixed_accum_dispatch(p, x, w, &d);
  EXPECT_EQ(d.fast, simd_kernel_enabled());
  EXPECT_EQ(d.data_scanned, simd_kernel_enabled());

  const Tensor<std::int64_t> oracle = conv2d_fixed_accum(p, x, w);
  for (std::int64_t i = 0; i < oracle.num_elements(); ++i)
    ASSERT_EQ(oracle.at_flat(i), routed.at_flat(i)) << i;
}

}  // namespace
}  // namespace chainnn::nn
