// The vectorized analytical MAC kernel (nn/conv_kernel.hpp) against the
// scalar sticky-saturation oracle it must match bit-for-bit.
//
// The contract under test: the dispatcher runs the int32 micro-kernel
// exactly when the scanned operands prove taps * max|x| * max|w| <=
// 2^31 - 1, and the scalar reference otherwise (whose sticky clamps the
// fast kernel cannot reproduce); either way the result is exactly what
// conv2d_fixed_accum computes.
//
// The randomized cases draw their seeds from property_seeds(): fixed in
// tier-1, rotated per run by CHAINNN_SCHED_ROTATE in CI's sanitize lane.
#include "nn/conv_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "nn/golden.hpp"
#include "nn/pair_madd.hpp"
#include "property_seeds.hpp"

namespace chainnn::nn {
namespace {

// Largest partial sum an int32 accumulator holds exactly.
constexpr std::int64_t kInt32Limit = std::numeric_limits<std::int32_t>::max();

std::int64_t taps_of(const ConvLayerParams& p) {
  return p.channels_per_group() * p.kernel * p.kernel;
}

std::int64_t max_abs_of(const Tensor<std::int16_t>& t) {
  std::int64_t m = 0;
  for (const std::int16_t v : t.data())
    m = std::max(m, std::abs(std::int64_t{v}));
  return m;
}

// What the dispatcher must report for these operands: the int32 nest
// (ConvDispatch::fast) exactly when taps * max|x| * max|w| <= 2^31 - 1
// (taps stay tiny here, so the product cannot overflow int64).
bool int32_expected(const ConvLayerParams& p, const Tensor<std::int16_t>& x,
                    const Tensor<std::int16_t>& w) {
  return simd_kernel_enabled() &&
         taps_of(p) * max_abs_of(x) * max_abs_of(w) <= kInt32Limit;
}

// A random strided, grouped, asymmetrically padded layer with 1-64
// output channels per group and at least one output site.
ConvLayerParams random_layer(Rng& rng) {
  ConvLayerParams p;
  p.name = "prop";
  p.groups = rng.uniform_int(1, 3);
  p.kernel = rng.uniform_int(1, 5);
  p.stride = rng.uniform_int(1, 3);
  p.pad_h = rng.uniform_int(0, 2);
  p.pad_w = rng.uniform_int(0, 2);
  p.in_channels = p.groups * rng.uniform_int(1, 4);
  p.out_channels = p.groups * rng.uniform_int(1, 64);
  p.batch = rng.uniform_int(1, 2);
  // Keep at least one output site: H + 2*pad >= K.
  p.in_height = rng.uniform_int(
      std::max<std::int64_t>(1, p.kernel - 2 * p.pad_h), 12);
  p.in_width = rng.uniform_int(
      std::max<std::int64_t>(1, p.kernel - 2 * p.pad_w), 12);
  p.validate();
  return p;
}

// A layer that reaches every edge of the int32 nest's tiles: 1-33 input
// channels per group (an odd count pairs its last channel with a zero
// one), 1-40 output channels per group (every tile width, partial and
// several tiles), a 1-11 kernel at stride 1-4, its own padding per axis,
// and output widths from 1 to about 9, past twice a tile's largest pixel
// count (2), so partial pixel tiles read the padded copy's right edge.
ConvLayerParams tile_edge_layer(Rng& rng) {
  ConvLayerParams p;
  p.name = "tile-edge";
  p.groups = rng.uniform_int(1, 3);
  p.in_channels = p.groups * rng.uniform_int(1, 33);
  p.out_channels = p.groups * rng.uniform_int(1, 40);
  p.kernel = rng.uniform_int(1, 11);
  p.stride = rng.uniform_int(1, 4);
  p.pad_h = rng.uniform_int(0, p.kernel / 2);
  p.pad_w = rng.uniform_int(0, p.kernel / 2);
  p.batch = rng.uniform_int(1, 3);
  // The input that gives about oh x ow outputs, with up to stride - 1
  // trailing pixels that no window reaches.
  const auto extent = [&](std::int64_t out, std::int64_t pad) {
    return std::max<std::int64_t>(1, (out - 1) * p.stride + p.kernel -
                                         2 * pad +
                                         rng.uniform_int(0, p.stride - 1));
  };
  p.in_height = extent(rng.uniform_int(1, 3), p.pad_h);
  p.in_width = extent(rng.uniform_int(1, 9), p.pad_w);
  p.validate();
  return p;
}

// Uniform values in [-peak, peak] (clipped to int16), with one element
// pinned to -peak so the tensor's max |value| is exactly `peak`.
void fill_to_peak(Tensor<std::int16_t>& t, Rng& rng, std::int64_t peak) {
  t.fill_random(rng, static_cast<double>(-peak),
                static_cast<double>(std::min<std::int64_t>(peak, 32767)));
  t.at_flat(rng.uniform_int(0, t.num_elements() - 1)) =
      static_cast<std::int16_t>(-peak);
}

void expect_bit_identical(const Tensor<std::int64_t>& oracle,
                          const Tensor<std::int64_t>& got,
                          const ConvLayerParams& p) {
  ASSERT_EQ(oracle.shape(), got.shape());
  for (std::int64_t i = 0; i < oracle.num_elements(); ++i)
    ASSERT_EQ(oracle.at_flat(i), got.at_flat(i))
        << "site " << i << " of " << p.to_string();
}

// A 1x1-output layer whose int16-extreme sums pass Accumulator48::kMax:
// C * K * K = 14564 * 9 = 131076 taps of 2^30 each, and 131076 * 2^30 >
// 2^47 - 1.
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

TEST(ConvKernelBound, Int32BoundMath) {
  ConvLayerParams p;
  p.in_height = p.in_width = 64;
  p.kernel = 3;
  // VGG's deepest conv: 512 * 3 * 3 = 4608 taps. At |w| <= 16 it stays
  // int32-exact up to max|x| = 29127 (4608 * 29127 * 16 = 2^31 - 8192).
  p.in_channels = 512;
  p.out_channels = 512;
  EXPECT_TRUE(saturation_free(p, 29127, 16));
  EXPECT_FALSE(saturation_free(p, 29128, 16));

  // At int16's worst case only a one-tap layer fits (2^30 <= 2^31 - 1 <
  // 2 * 2^30), so the dispatcher must scan.
  ConvLayerParams edge;
  edge.kernel = 1;
  edge.in_height = edge.in_width = 1;
  edge.in_channels = 1;
  edge.out_channels = 1;
  EXPECT_TRUE(saturation_free(edge, 32768, 32768));
  edge.in_channels = 2;
  EXPECT_FALSE(saturation_free(edge, 32768, 32768));
  // Exactly on the limit is admitted, one tap past it is not, and a
  // provably-zero operand admits anything.
  edge.in_channels = kInt32Limit;
  EXPECT_TRUE(saturation_free(edge, 1, 1));
  edge.in_channels = kInt32Limit + 1;
  EXPECT_FALSE(saturation_free(edge, 1, 1));
  EXPECT_TRUE(saturation_free(edge, 0, 32768));
  EXPECT_TRUE(saturation_free(edge, 32768, 0));
}

TEST(ConvKernelProperty, FastMatchesScalarOracleOnRandomLayers) {
  // Random layer geometries with full-range int16 operands. At these
  // magnitudes only layers of one or two taps can fit the int32 bound, so
  // most cases are refused and take the scalar reference; whichever route
  // the dispatcher takes must reproduce the sticky-clamp oracle exactly.
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int iter = 0; iter < 40; ++iter) {
      const ConvLayerParams p = random_layer(rng);

      Tensor<std::int16_t> x(
          Shape{p.batch, p.in_channels, p.in_height, p.in_width});
      Tensor<std::int16_t> w(Shape{p.out_channels, p.channels_per_group(),
                                   p.kernel, p.kernel});
      x.fill_random(rng, -32768, 32767);
      w.fill_random(rng, -32768, 32767);

      ConvDispatch d;
      const Tensor<std::int64_t> routed =
          conv2d_fixed_accum_dispatch(p, x, w, &d);
      EXPECT_EQ(d.fast, int32_expected(p, x, w)) << p.to_string();
      expect_bit_identical(conv2d_fixed_accum(p, x, w), routed, p);
    }
  }
}

TEST(ConvKernelProperty, Int32NestOnBothSidesOfTheBound) {
  // Operand magnitudes drawn so taps * max|x| * max|w| lands within a
  // factor of two of 2^31 - 1, on either side: the dispatcher must take
  // the int32 nest exactly when the product fits, the scalar reference
  // otherwise, and both must match the oracle bit for bit.
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    int admitted = 0;
    int refused = 0;
    for (int iter = 0; iter < 40; ++iter) {
      const ConvLayerParams p = random_layer(rng);
      const std::int64_t peak_w = rng.uniform_int(1, 32768);
      // factor / 2 in {1/2, 1, 3/2, 2} of the largest admissible |x|.
      const std::int64_t peak_x = std::clamp<std::int64_t>(
          kInt32Limit / (taps_of(p) * peak_w) * rng.uniform_int(1, 4) / 2, 1,
          32768);

      Tensor<std::int16_t> x(
          Shape{p.batch, p.in_channels, p.in_height, p.in_width});
      Tensor<std::int16_t> w(Shape{p.out_channels, p.channels_per_group(),
                                   p.kernel, p.kernel});
      fill_to_peak(x, rng, peak_x);
      fill_to_peak(w, rng, peak_w);

      ConvDispatch d;
      const Tensor<std::int64_t> routed =
          conv2d_fixed_accum_dispatch(p, x, w, &d);
      const bool want_int32 = int32_expected(p, x, w);
      EXPECT_EQ(d.fast, want_int32) << p.to_string();
      expect_bit_identical(conv2d_fixed_accum(p, x, w), routed, p);
      (want_int32 ? admitted : refused) += 1;
    }
    if (simd_kernel_enabled()) {
      EXPECT_GT(admitted, 0);
      EXPECT_GT(refused, 0);
    }
  }
}

TEST(ConvKernelProperty, WideGroupsSpanSeveralChannelBlocks) {
  // 129-300 output channels per group: the int32 nest packs and sweeps
  // each group as many channel tiles, the last one partial, and must
  // match the oracle.
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int iter = 0; iter < 4; ++iter) {
      ConvLayerParams p = random_layer(rng);
      p.out_channels = p.groups * rng.uniform_int(129, 300);
      p.validate();

      Tensor<std::int16_t> x(
          Shape{p.batch, p.in_channels, p.in_height, p.in_width});
      Tensor<std::int16_t> w(Shape{p.out_channels, p.channels_per_group(),
                                   p.kernel, p.kernel});
      fill_to_peak(x, rng, 64);
      fill_to_peak(w, rng, 16);

      ConvDispatch d;
      expect_bit_identical(conv2d_fixed_accum(p, x, w),
                           conv2d_fixed_accum_dispatch(p, x, w, &d), p);
      EXPECT_EQ(d.fast, int32_expected(p, x, w)) << p.to_string();
    }
  }
}

TEST(ConvKernelProperty, Int32TilesMatchScalarOracleAtEveryEdge) {
  // Tile-edge layers with operand peaks near the int32 bound on either
  // side: the dispatcher must take the int32 nest exactly when the
  // scanned bound holds, and both routes must match the oracle bit for
  // bit.
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    int admitted = 0;
    int refused = 0;
    for (int iter = 0; iter < 40; ++iter) {
      const ConvLayerParams p = tile_edge_layer(rng);
      const std::int64_t peak_w = rng.uniform_int(1, 32768);
      const std::int64_t peak_x = std::clamp<std::int64_t>(
          kInt32Limit / (taps_of(p) * peak_w) * rng.uniform_int(1, 4) / 2, 1,
          32768);

      Tensor<std::int16_t> x(
          Shape{p.batch, p.in_channels, p.in_height, p.in_width});
      Tensor<std::int16_t> w(Shape{p.out_channels, p.channels_per_group(),
                                   p.kernel, p.kernel});
      fill_to_peak(x, rng, peak_x);
      fill_to_peak(w, rng, peak_w);

      ConvDispatch d;
      expect_bit_identical(conv2d_fixed_accum(p, x, w),
                           conv2d_fixed_accum_dispatch(p, x, w, &d), p);
      const bool want_int32 = int32_expected(p, x, w);
      EXPECT_EQ(d.fast, want_int32) << p.to_string();
      (want_int32 ? admitted : refused) += 1;
    }
    if (simd_kernel_enabled()) {
      EXPECT_GT(admitted, 0);
      EXPECT_GT(refused, 0);
    }
  }
}

#if defined(__SSE2__)
TEST(PairMadd, PortableBodyMatchesSse2LaneForLane) {
  // Runs of pair multiply-adds that the int32 proof admits: `steps` steps
  // of two products each, with 2 * steps * max|x| * max|w| <= 2^31 - 1.
  // After every step both bodies must hold the same four lanes, and
  // those must be the exact running sums. Half the steps broadcast one
  // pixel pair, as the kernel does; the rest take eight free lanes.
  using P = PortablePairMadd;
  using S = Sse2PairMadd;
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int run = 0; run < 200; ++run) {
      const std::int64_t steps = rng.uniform_int(1, 64);
      const std::int64_t peak_w = rng.uniform_int(1, 32768);
      const std::int64_t peak_x =
          std::min<std::int64_t>(32768, kInt32Limit / (2 * steps * peak_w));
      const auto draw = [&rng](std::int64_t peak) {
        return static_cast<std::int16_t>(
            rng.uniform_int(-peak, std::min<std::int64_t>(peak, 32767)));
      };
      P::I32x4 pa = P::zero();
      S::I32x4 sa = S::zero();
      std::int64_t exact[4] = {0, 0, 0, 0};
      for (std::int64_t step = 0; step < steps; ++step) {
        alignas(16) std::int16_t w[8];
        alignas(16) std::int16_t x[8];
        for (std::int16_t& v : w) v = draw(peak_w);
        P::I16x8 px;
        S::I16x8 sx;
        if (rng.uniform_int(0, 1) == 0) {
          x[0] = draw(peak_x);
          x[1] = draw(peak_x);
          for (int i = 2; i < 8; ++i) x[i] = x[i % 2];
          const std::uint32_t pair =
              std::uint32_t{static_cast<std::uint16_t>(x[0])} |
              std::uint32_t{static_cast<std::uint16_t>(x[1])} << 16;
          px = P::broadcast(pair);
          sx = S::broadcast(pair);
        } else {
          for (std::int16_t& v : x) v = draw(peak_x);
          px = P::load(x);
          sx = S::load(x);
        }
        pa = P::madd(pa, P::load(w), px);
        sa = S::madd(sa, S::load(w), sx);
        for (int j = 0; j < 4; ++j)
          exact[j] += std::int64_t{w[2 * j]} * x[2 * j] +
                      std::int64_t{w[2 * j + 1]} * x[2 * j + 1];
        std::int32_t portable[4];
        std::int32_t sse2[4];
        P::store(portable, pa);
        S::store(sse2, sa);
        for (int j = 0; j < 4; ++j) {
          ASSERT_EQ(portable[j], sse2[j]) << "lane " << j << " step " << step;
          ASSERT_EQ(portable[j], exact[j]) << "lane " << j << " step " << step;
        }
      }
    }
  }
}
#endif

TEST(ConvKernelDispatch, Int32NestHoldsTheLargestAdmittedSum) {
  // 2^31 - 1 is prime, so no tap count times two int16 magnitudes equals
  // it; 3 * 21846 * 32767 = 2^31 - 2 is the largest product that fits.
  // With every term at its maximum the int32 accumulator really holds
  // that sum, and the layer must be admitted.
  ConvLayerParams p;
  p.name = "int32-edge";
  p.in_channels = 3;
  p.out_channels = 8;
  p.in_height = p.in_width = 2;
  p.kernel = 1;
  p.validate();
  const Tensor<std::int16_t> x(Shape{1, 3, 2, 2}, std::int16_t{21846});
  const Tensor<std::int16_t> w(Shape{8, 3, 1, 1}, std::int16_t{32767});
  ASSERT_EQ(taps_of(p) * 21846 * 32767, kInt32Limit - 1);

  ConvDispatch d;
  const Tensor<std::int64_t> routed = conv2d_fixed_accum_dispatch(p, x, w, &d);
  EXPECT_EQ(d.fast, simd_kernel_enabled());
  const Tensor<std::int64_t> oracle = conv2d_fixed_accum(p, x, w);
  expect_bit_identical(oracle, routed, p);
  EXPECT_EQ(routed.at_flat(0), kInt32Limit - 1);

  // One step up in max|w| and the same layer no longer fits.
  EXPECT_FALSE(saturation_free(p, 21846, 32768));
}

TEST(ConvKernelDispatch, Int32WrapIsRefusedAndStillExact) {
  // All-extreme operands: three taps of (-2^15)^2 = 2^30 sum to 3 * 2^30,
  // which an int32 accumulator would wrap but Accumulator48 holds without
  // clamping. The scan must refuse the int32 nest, and the scalar
  // reference runs and matches the oracle.
  ConvLayerParams p;
  p.name = "int32-wrap";
  p.in_channels = 3;
  p.out_channels = 5;
  p.in_height = p.in_width = 3;
  p.kernel = 1;
  p.validate();
  const Tensor<std::int16_t> x(Shape{1, 3, 3, 3}, std::int16_t{-32768});
  const Tensor<std::int16_t> w(Shape{5, 3, 1, 1}, std::int16_t{-32768});

  ConvDispatch d;
  const Tensor<std::int64_t> routed = conv2d_fixed_accum_dispatch(p, x, w, &d);
  EXPECT_FALSE(d.fast);
  const Tensor<std::int64_t> oracle = conv2d_fixed_accum(p, x, w);
  expect_bit_identical(oracle, routed, p);
  EXPECT_EQ(routed.at_flat(0), 3 * (std::int64_t{1} << 30));
  EXPECT_GT(routed.at_flat(0), kInt32Limit);
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

  const Tensor<std::int64_t> oracle = conv2d_fixed_accum(p, x, w);
  ASSERT_EQ(routed.num_elements(), 1);
  EXPECT_EQ(routed.at_flat(0), oracle.at_flat(0));
  // The clamp genuinely fired: sticky saturation lost information the
  // unclamped sum kept.
  EXPECT_NE(oracle.at_flat(0), unclamped);
}

TEST(ConvKernelDispatch, OperandScanAdmitsSmallMagnitudes) {
  // Same oversized-tap geometry, but the data is tiny: the scan proves
  // |x|,|w| <= 2 and admits the int32 nest, since 131076 taps * 2 * 2 is
  // far below 2^31 - 1.
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

  const Tensor<std::int64_t> oracle = conv2d_fixed_accum(p, x, w);
  for (std::int64_t i = 0; i < oracle.num_elements(); ++i)
    ASSERT_EQ(oracle.at_flat(i), routed.at_flat(i)) << i;
}

}  // namespace
}  // namespace chainnn::nn
