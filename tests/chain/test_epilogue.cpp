// The layer write-back against the scalar oracles it must match bit for
// bit.
//
//   * ChainAccelerator::run_layer requantizes one (n, m) plane at a time,
//     with the channel's bias aligned once and the NarrowingStats kept in
//     locals. Its ofmaps and all five stats fields must equal a
//     per-element fixed::narrow_to_fixed16 loop over the same
//     accumulators: every Rounding mode, both PsumStorage policies, with
//     and without bias, accumulators that saturate both ways, and an
//     ofmap format with more fraction bits than the accumulator (the
//     left-shift branch).
//   * nn::max_pool walks raw pointers and clips each window once; it must
//     equal the bounds-checked loop kept here as its oracle.
//   * ReLU commutes with max pooling (ReLU is monotone), which is what
//     lets NetworkRunner pool first and ReLU the smaller pooled tensor.
//   * NetworkRunner frees each layer's accumulators at write-back, so
//     results and checkpoints hold none.
//
// The randomized cases draw their seeds from property_seeds(): fixed in
// tier-1, rotated per run by CHAINNN_SCHED_ROTATE in CI's sanitize lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chain/accelerator.hpp"
#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "fixed/fixed16.hpp"
#include "nn/golden.hpp"
#include "nn/layers.hpp"
#include "property_seeds.hpp"

namespace chainnn {
namespace {

using fixed::FixedFormat;
using fixed::NarrowingStats;
using fixed::Overflow;
using fixed::Rounding;

constexpr Rounding kRoundings[] = {Rounding::kNearestEven,
                                   Rounding::kNearestUp, Rounding::kTruncate};

void expect_same_stats(const NarrowingStats& got, const NarrowingStats& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.saturations, want.saturations);
  EXPECT_EQ(got.invalids, want.invalids);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_abs_error),
            std::bit_cast<std::uint64_t>(want.max_abs_error))
      << got.max_abs_error << " vs " << want.max_abs_error;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sum_sq_error),
            std::bit_cast<std::uint64_t>(want.sum_sq_error))
      << got.sum_sq_error << " vs " << want.sum_sq_error;
}

// --- requantize ------------------------------------------------------------

TEST(Epilogue, PlaneNarrowingMatchesScalarLoop) {
  // Two planes folded into stats that already hold earlier ones: first
  // exact halves of the shift (ties), one either side of them and random
  // words, then both 48-bit clamps and the int16 limits. Each is narrowed
  // with right, zero and left shifts. The first plane's squared errors
  // are small, so folding them in any other order than element order
  // would show in the sum's low bits.
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (const int acc_frac : {16, 8, 5, 0}) {
      for (const int out_frac : {8, 9, 0}) {
        const int shift = acc_frac - out_frac;
        std::vector<std::int64_t> moderate;
        if (shift > 0) {
          const std::int64_t half = std::int64_t{1} << (shift - 1);
          for (const std::int64_t base : {0, 1, 2, 3, -1, -2, -3})
            for (const std::int64_t off : {-1, 0, 1}) {
              moderate.push_back((base << shift) + half + off);
              moderate.push_back((base << shift) - half + off);
            }
        }
        for (int i = 0; i < 64; ++i)
          moderate.push_back(rng.uniform_int(-(std::int64_t{1} << 20),
                                             std::int64_t{1} << 20));
        const std::vector<std::int64_t> extreme = {
            fixed::Accumulator48::kMax, fixed::Accumulator48::kMin, 0, 1,
            -1, 32767, -32768, 32768, -32769};
        const std::int64_t addend = rng.uniform_int(-4096, 4096);
        for (const Rounding rounding : kRoundings) {
          SCOPED_TRACE(testing::Message()
                       << "acc_frac " << acc_frac << " out_frac " << out_frac
                       << " rounding " << static_cast<int>(rounding));
          NarrowingStats want{5, 2, 1, 0.25, 1.0 / 3.0};
          NarrowingStats got = want;
          const std::vector<std::int64_t>* planes[] = {&moderate, &extreme};
          for (const std::vector<std::int64_t>* plane : planes) {
            std::vector<std::int16_t> want_words;
            for (const std::int64_t a : *plane)
              want_words.push_back(fixed::narrow_to_fixed16(
                  a + addend, acc_frac, FixedFormat{out_frac}, rounding,
                  Overflow::kSaturate, &want));
            std::vector<std::int16_t> got_words(plane->size());
            fixed::narrow_plane_to_fixed16(
                plane->data(), static_cast<std::int64_t>(plane->size()),
                addend, acc_frac, FixedFormat{out_frac}, rounding,
                got_words.data(), got);
            EXPECT_EQ(got_words, want_words);
            expect_same_stats(got, want);
          }
          EXPECT_GT(got.saturations, 2u);  // both 48-bit clamps saturate
        }
      }
    }
  }
}

// One formats case of the accelerator sweep.
struct Formats {
  int ifmap, kernel, psum, ofmap;
};

nn::ConvLayerParams random_layer(Rng& rng) {
  nn::ConvLayerParams p;
  p.name = "epilogue";
  p.batch = rng.uniform_int(1, 2);
  p.in_channels = rng.uniform_int(1, 4);
  p.out_channels = rng.uniform_int(1, 5);
  p.in_height = rng.uniform_int(3, 9);
  p.in_width = rng.uniform_int(3, 9);
  p.kernel = rng.uniform_int(1, 3);
  p.stride = rng.uniform_int(1, 2);
  p.pad = rng.uniform_int(0, p.kernel - 1);
  p.validate();
  return p;
}

// The write-back as a per-element loop: the bias aligned for every
// element, then one scalar narrowing each.
void scalar_write_back(const chain::AcceleratorConfig& cfg,
                       const nn::ConvLayerParams& layer,
                       const Tensor<std::int64_t>& acc,
                       const Tensor<std::int16_t>* bias,
                       Tensor<std::int16_t>& ofmaps, NarrowingStats& stats) {
  const std::int64_t plane = layer.out_height() * layer.out_width();
  const bool wide = cfg.psum_storage == chain::PsumStorage::kWide;
  const int acc_frac = wide ? cfg.ifmap_fmt.frac_bits + cfg.kernel_fmt.frac_bits
                            : cfg.psum_fmt.frac_bits;
  ofmaps = Tensor<std::int16_t>(acc.shape());
  for (std::int64_t i = 0; i < acc.num_elements(); ++i) {
    const std::int64_t m = (i / plane) % layer.out_channels;
    std::int64_t v = acc.at_flat(i);
    if (bias)
      v += fixed::shift_right_rounded(bias->at_flat(m),
                                      cfg.ofmap_fmt.frac_bits - acc_frac,
                                      cfg.rounding);
    ofmaps.at_flat(i) =
        fixed::narrow_to_fixed16(v, acc_frac, cfg.ofmap_fmt, cfg.rounding,
                                 Overflow::kSaturate, &stats);
  }
}

TEST(Epilogue, RunLayerRequantizeMatchesScalarOracle) {
  // Formats: the default Q7.8 everywhere; an ofmap with more fraction
  // bits than the wide accumulator and than the staged psums (left
  // shifts); and a mixed set with right shifts of different sizes.
  const Formats formats[] = {{8, 8, 8, 8}, {2, 3, 4, 9}, {6, 7, 10, 5}};
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::int64_t saturated_high = 0;
    std::int64_t saturated_low = 0;
    for (const Formats& f : formats)
      for (const Rounding rounding : kRoundings)
        for (const chain::PsumStorage storage :
             {chain::PsumStorage::kWide, chain::PsumStorage::kStaged16})
          for (const bool with_bias : {false, true}) {
            const nn::ConvLayerParams layer = random_layer(rng);
            SCOPED_TRACE(testing::Message()
                         << layer.to_string() << " formats " << f.ifmap << "/"
                         << f.kernel << "/" << f.psum << "/" << f.ofmap
                         << " rounding " << static_cast<int>(rounding)
                         << (storage == chain::PsumStorage::kWide
                                 ? " wide"
                                 : " staged16")
                         << (with_bias ? " bias" : ""));
            chain::AcceleratorConfig cfg;
            cfg.exec_mode = chain::ExecMode::kAnalytical;
            cfg.ifmap_fmt = FixedFormat{f.ifmap};
            cfg.kernel_fmt = FixedFormat{f.kernel};
            cfg.psum_fmt = FixedFormat{f.psum};
            cfg.ofmap_fmt = FixedFormat{f.ofmap};
            cfg.rounding = rounding;
            cfg.psum_storage = storage;
            const chain::ChainAccelerator acc(cfg);

            // Full-range operands saturate both ways; small ones mostly
            // do not, so ties and plain rounding are exercised too.
            const std::int64_t range =
                rng.uniform_int(0, 1) == 0 ? 64 : 32767;
            Tensor<std::int16_t> x(Shape{layer.batch, layer.in_channels,
                                         layer.in_height, layer.in_width});
            Tensor<std::int16_t> w(Shape{layer.out_channels,
                                         layer.channels_per_group(),
                                         layer.kernel, layer.kernel});
            Tensor<std::int16_t> b(Shape{layer.out_channels});
            x.fill_random(rng, static_cast<double>(-range),
                          static_cast<double>(range));
            w.fill_random(rng, static_cast<double>(-range),
                          static_cast<double>(range));
            b.fill_random(rng, -32768, 32767);
            const Tensor<std::int16_t>* bias = with_bias ? &b : nullptr;

            const chain::LayerRunResult got = acc.run_layer(layer, x, w, bias);
            Tensor<std::int16_t> want;
            NarrowingStats want_stats;
            scalar_write_back(cfg, layer, got.accumulators, bias, want,
                              want_stats);
            EXPECT_TRUE(got.ofmaps == want);
            expect_same_stats(got.narrowing, want_stats);
            for (const std::int16_t v : got.ofmaps.data()) {
              saturated_high += v == 32767;
              saturated_low += v == -32768;
            }

            // Without bias, the wide write-back is also the golden
            // model's.
            if (storage == chain::PsumStorage::kWide && !with_bias) {
              const nn::FixedConvResult golden =
                  nn::conv2d_fixed(layer, x, w, cfg.ifmap_fmt, cfg.kernel_fmt,
                                   cfg.ofmap_fmt, nullptr, rounding);
              EXPECT_TRUE(got.ofmaps == golden.ofmaps);
              expect_same_stats(got.narrowing, golden.narrowing);
            }
          }
    EXPECT_GT(saturated_high, 0);
    EXPECT_GT(saturated_low, 0);
  }
}

// --- max pooling -----------------------------------------------------------

// The bounds-checked loop nn::max_pool replaced.
template <typename T>
Tensor<T> max_pool_oracle(const Tensor<T>& in, const nn::PoolParams& p) {
  const std::int64_t n = in.shape().dim(0);
  const std::int64_t c = in.shape().dim(1);
  const std::int64_t h = in.shape().dim(2);
  const std::int64_t w = in.shape().dim(3);
  const std::int64_t eh = p.out_size(h);
  const std::int64_t ew = p.out_size(w);
  Tensor<T> out(Shape{n, c, eh, ew});
  for (std::int64_t ni = 0; ni < n; ++ni)
    for (std::int64_t ci = 0; ci < c; ++ci)
      for (std::int64_t oy = 0; oy < eh; ++oy)
        for (std::int64_t ox = 0; ox < ew; ++ox) {
          T best = std::numeric_limits<T>::lowest();
          for (std::int64_t ky = 0; ky < p.window; ++ky) {
            const std::int64_t iy = oy * p.stride + ky - p.pad;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < p.window; ++kx) {
              const std::int64_t ix = ox * p.stride + kx - p.pad;
              if (ix < 0 || ix >= w) continue;
              best = std::max(best, in.at(ni, ci, iy, ix));
            }
          }
          out.at(ni, ci, oy, ox) = best;
        }
  return out;
}

// Every (window, stride, pad) with window 1-4, stride 1-5 (so strides
// past the window skip inputs) and 0 <= pad < window.
std::vector<nn::PoolParams> all_pool_params() {
  std::vector<nn::PoolParams> out;
  for (std::int64_t window = 1; window <= 4; ++window)
    for (std::int64_t stride = 1; stride <= 5; ++stride)
      for (std::int64_t pad = 0; pad < window; ++pad)
        out.push_back(nn::PoolParams{window, stride, pad});
  return out;
}

// A random {N, C, H, W} with odd and even sizes, H != W.
Shape random_pool_shape(Rng& rng) {
  return Shape{rng.uniform_int(1, 2), rng.uniform_int(1, 3),
               rng.uniform_int(1, 11), rng.uniform_int(1, 11)};
}

bool pool_fits(const Shape& s, const nn::PoolParams& p) {
  return p.out_size(s.dim(2)) > 0 && p.out_size(s.dim(3)) > 0;
}

TEST(Epilogue, MaxPoolMatchesBoundsCheckedLoop) {
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (const nn::PoolParams& p : all_pool_params()) {
      const Shape shape = random_pool_shape(rng);
      if (!pool_fits(shape, p)) continue;
      SCOPED_TRACE(testing::Message()
                   << shape.to_string() << " window " << p.window
                   << " stride " << p.stride << " pad " << p.pad);
      Tensor<std::int16_t> xi(shape);
      xi.fill_random(rng, -32768, 32767);
      EXPECT_TRUE(nn::max_pool(xi, p) == max_pool_oracle(xi, p));
      Tensor<float> xf(shape);
      xf.fill_random(rng, -8.0, 8.0);
      EXPECT_TRUE(nn::max_pool(xf, p) == max_pool_oracle(xf, p));
    }
  }
}

TEST(Epilogue, ReluCommutesWithMaxPool) {
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (const nn::PoolParams& p : all_pool_params()) {
      const Shape shape = random_pool_shape(rng);
      if (!pool_fits(shape, p)) continue;
      SCOPED_TRACE(testing::Message()
                   << shape.to_string() << " window " << p.window
                   << " stride " << p.stride << " pad " << p.pad);
      Tensor<std::int16_t> x(shape);
      x.fill_random(rng, -32768, 32767);
      Tensor<std::int16_t> pool_then_relu = nn::max_pool(x, p);
      nn::relu_inplace(pool_then_relu);
      Tensor<std::int16_t> relu_then_pool = x;
      nn::relu_inplace(relu_then_pool);
      relu_then_pool = nn::max_pool(relu_then_pool, p);
      EXPECT_TRUE(pool_then_relu == relu_then_pool);
    }
  }
}

TEST(Epilogue, RunnerMatchesReluThenPoolOnTheGoldenModel) {
  // Two layers, the first pooled with padding and a stride past its
  // window: the runner (pool, then ReLU) must hand each layer exactly
  // what the golden model does with ReLU first, then pool.
  nn::NetworkModel net;
  net.name = "epilogue2";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 3;
  l1.in_height = 13;
  l1.in_width = 11;
  l1.kernel = 3;
  l1.pad = 1;
  nn::ConvLayerParams l2 = l1;
  l2.name = "c2";
  l2.in_channels = 3;
  l2.out_channels = 2;
  net.conv_layers = {l1, l2};

  chain::NetworkRunOptions opts;
  opts.inter_layer = {chain::InterLayerOp{true, true, nn::PoolParams{2, 3, 1}},
                      chain::InterLayerOp{true, false, {}}};
  opts.weight_init = [](std::int64_t layer, Tensor<std::int16_t>& w) {
    Rng rng(100 + static_cast<std::uint64_t>(layer));
    w.fill_random(rng, -64, 64);
  };
  Tensor<std::int16_t> input(Shape{2, 2, 13, 11});
  Rng rng(7);
  input.fill_random(rng, -256, 256);

  chain::AcceleratorConfig cfg;
  cfg.exec_mode = chain::ExecMode::kAnalytical;
  const chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  const chain::NetworkRunResult run = runner.run(net, input, opts);
  ASSERT_EQ(run.layers.size(), 2u);

  Tensor<std::int16_t> act = input;
  for (std::size_t i = 0; i < 2; ++i) {
    nn::ConvLayerParams layer = net.conv_layers[i];
    layer.batch = act.shape().dim(0);
    layer.in_height = act.shape().dim(2);
    layer.in_width = act.shape().dim(3);
    Tensor<std::int16_t> w(Shape{layer.out_channels,
                                 layer.channels_per_group(), layer.kernel,
                                 layer.kernel});
    opts.weight_init(static_cast<std::int64_t>(i), w);
    const nn::FixedConvResult golden = nn::conv2d_fixed(
        layer, act, w, cfg.ifmap_fmt, cfg.kernel_fmt, cfg.ofmap_fmt);
    EXPECT_TRUE(run.layers[i].run.ofmaps == golden.ofmaps) << i;
    expect_same_stats(run.layers[i].run.narrowing, golden.narrowing);
    act = golden.ofmaps;
    if (opts.inter_layer[i].relu) nn::relu_inplace(act);
    if (opts.inter_layer[i].pool)
      act = max_pool_oracle(act, opts.inter_layer[i].pool_params);
  }
  EXPECT_TRUE(run.final_activations == act);
}

TEST(Epilogue, ResultsAndCheckpointsHoldNoAccumulators) {
  // A layer's wide psums go once it is written back: neither a checkpoint
  // (nor so a CHECKPOINT record) nor the result of the resumed run carries
  // them, on either engine, while the ofmaps and narrowing stats stay.
  nn::NetworkModel net;
  net.name = "epilogue3";
  nn::ConvLayerParams l;
  l.in_channels = 2;
  l.out_channels = 3;
  l.in_height = l.in_width = 8;
  l.kernel = 3;
  l.pad = 1;
  for (const char* name : {"c1", "c2", "c3"}) {
    l.name = name;
    net.conv_layers.push_back(l);
    l.in_channels = l.out_channels;
  }
  Tensor<std::int16_t> input(Shape{2, 2, 8, 8});
  Rng rng(5);
  input.fill_random(rng, -64, 64);
  const auto energy = energy::EnergyModel::paper_calibrated();

  for (const chain::ExecMode mode :
       {chain::ExecMode::kCycleAccurate, chain::ExecMode::kAnalytical}) {
    SCOPED_TRACE(chain::exec_mode_name(mode));
    chain::AcceleratorConfig cfg;
    cfg.array.num_pes = 64;
    cfg.array.kmem_words_per_pe = 64;
    cfg.exec_mode = mode;
    const chain::ChainAccelerator acc(cfg);
    chain::NetworkRunner runner(acc, energy);

    chain::NetworkRunOptions opts;
    int boundary = 0;
    opts.preempt_check = [&boundary] { return boundary++ == 2; };
    std::shared_ptr<chain::RunCheckpoint> cp;
    try {
      (void)runner.run(net, input, opts);
    } catch (const chain::RunPreempted& preempted) {
      cp = preempted.checkpoint();
    }
    ASSERT_NE(cp, nullptr);
    ASSERT_EQ(cp->layers.size(), 2u);
    for (const chain::NetworkLayerResult& r : cp->layers)
      EXPECT_EQ(r.run.accumulators.num_elements(), 0) << r.layer.name;

    chain::NetworkRunOptions resume;
    resume.resume = cp;
    const chain::NetworkRunResult run = runner.run(net, input, resume);
    ASSERT_EQ(run.layers.size(), 3u);
    for (const chain::NetworkLayerResult& r : run.layers) {
      EXPECT_EQ(r.run.accumulators.num_elements(), 0) << r.layer.name;
      EXPECT_GT(r.run.ofmaps.num_elements(), 0) << r.layer.name;
      EXPECT_EQ(r.run.narrowing.count,
                static_cast<std::uint64_t>(r.run.ofmaps.num_elements()))
          << r.layer.name;
    }
    EXPECT_TRUE(run.all_verified());
  }
}

}  // namespace
}  // namespace chainnn
