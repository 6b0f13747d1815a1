// Exec-mode equivalence sweep: the analytical fast path must reproduce
// the cycle-accurate engine exactly — bit-identical ofmaps and
// accumulators, identical RunStats (every field) and identical per-level
// traffic — across strides, asymmetric padding, grouped convolutions,
// 1x1 kernels, staged psums, single-channel streaming, bias and whole
// networks (NetworkRunner).
#include <gtest/gtest.h>

#include <vector>

#include "chain/accelerator.hpp"
#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "energy/energy_model.hpp"
#include "nn/models.hpp"

namespace chainnn::chain {
namespace {

AcceleratorConfig small_config(std::int64_t pes = 64) {
  AcceleratorConfig cfg;
  cfg.array.num_pes = pes;
  cfg.array.kmem_words_per_pe = 64;
  return cfg;
}

struct TestData {
  Tensor<std::int16_t> ifmaps;
  Tensor<std::int16_t> kernels;
};

TestData make_data(const nn::ConvLayerParams& p, std::uint64_t seed) {
  Rng rng(seed);
  TestData d{
      Tensor<std::int16_t>(
          Shape{p.batch, p.in_channels, p.in_height, p.in_width}),
      Tensor<std::int16_t>(
          Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel})};
  d.ifmaps.fill_random(rng, -100, 100);
  d.kernels.fill_random(rng, -20, 20);
  return d;
}

// Asserts the full equivalence contract between the two modes for one
// (config, layer) point.
void expect_modes_equivalent(AcceleratorConfig cfg,
                             const nn::ConvLayerParams& p,
                             std::uint64_t seed,
                             const Tensor<std::int16_t>* bias = nullptr) {
  const TestData d = make_data(p, seed);
  cfg.exec_mode = ExecMode::kCycleAccurate;
  ChainAccelerator cycle(cfg);
  cfg.exec_mode = ExecMode::kAnalytical;
  ChainAccelerator fast(cfg);

  const LayerRunResult rc = cycle.run_layer(p, d.ifmaps, d.kernels, bias);
  const LayerRunResult ra = fast.run_layer(p, d.ifmaps, d.kernels, bias);
  const std::string ctx = p.to_string();

  EXPECT_EQ(ra.accumulators, rc.accumulators) << ctx;
  EXPECT_EQ(ra.ofmaps, rc.ofmaps) << ctx;

  EXPECT_EQ(ra.stats.kernel_load_cycles, rc.stats.kernel_load_cycles) << ctx;
  EXPECT_EQ(ra.stats.stream_cycles, rc.stats.stream_cycles) << ctx;
  EXPECT_EQ(ra.stats.drain_cycles, rc.stats.drain_cycles) << ctx;
  EXPECT_EQ(ra.stats.windows_collected, rc.stats.windows_collected) << ctx;
  EXPECT_EQ(ra.stats.macs_performed, rc.stats.macs_performed) << ctx;
  EXPECT_EQ(ra.stats.passes, rc.stats.passes) << ctx;

  EXPECT_EQ(ra.traffic, rc.traffic) << ctx;

  EXPECT_EQ(ra.narrowing.count, rc.narrowing.count) << ctx;
  EXPECT_EQ(ra.narrowing.saturations, rc.narrowing.saturations) << ctx;
}

nn::ConvLayerParams layer_of(std::int64_t n, std::int64_t c, std::int64_t m,
                             std::int64_t hw, std::int64_t k,
                             std::int64_t stride = 1, std::int64_t pad = 0,
                             std::int64_t groups = 1) {
  nn::ConvLayerParams p;
  p.name = "sweep";
  p.batch = n;
  p.in_channels = c;
  p.out_channels = m;
  p.in_height = p.in_width = hw;
  p.kernel = k;
  p.stride = stride;
  p.pad = pad;
  p.groups = groups;
  p.validate();
  return p;
}

TEST(ExecModeEquivalence, ConvShapeSweep) {
  // Strides (incl. AlexNet-conv1-style phase decomposition), padding,
  // grouped convolution, 1x1 kernels, batches, multiple m-groups.
  const std::vector<nn::ConvLayerParams> sweep = {
      layer_of(1, 2, 3, 8, 3),              // vanilla 3x3
      layer_of(2, 2, 3, 9, 3, 1, 1),        // padded, batched
      layer_of(1, 2, 2, 11, 5, 2, 2),       // stride 2, pad 2
      layer_of(1, 1, 2, 27, 11, 4),         // stride 4, K=11 (16 phases)
      layer_of(1, 4, 6, 9, 3, 1, 1, 2),     // grouped
      layer_of(1, 3, 4, 5, 1),              // 1x1 kernel
      layer_of(2, 3, 5, 12, 5, 1, 2),       // 5x5, pad 2, batched
      layer_of(1, 4, 4, 10, 3, 1, 1, 2),    // grouped + padded
  };
  std::uint64_t seed = 100;
  for (const auto& p : sweep)
    expect_modes_equivalent(small_config(256), p, seed++);
}

TEST(ExecModeEquivalence, AsymmetricPadding) {
  nn::ConvLayerParams p = layer_of(1, 2, 3, 9, 3);
  p.pad_h = 2;
  p.pad_w = 0;
  p.validate();
  expect_modes_equivalent(small_config(), p, 21);
  p.in_width = 12;
  p.pad_h = 0;
  p.pad_w = 1;
  p.validate();
  expect_modes_equivalent(small_config(), p, 22);
}

TEST(ExecModeEquivalence, StagedPsumStorage) {
  AcceleratorConfig cfg = small_config();
  cfg.psum_storage = PsumStorage::kStaged16;
  expect_modes_equivalent(cfg, layer_of(1, 3, 2, 8, 3), 31);
  expect_modes_equivalent(cfg, layer_of(2, 2, 3, 9, 3, 1, 1), 32);
  expect_modes_equivalent(cfg, layer_of(1, 2, 2, 11, 5, 2, 2), 33);
}

TEST(ExecModeEquivalence, SingleChannelStreaming) {
  AcceleratorConfig cfg = small_config();
  cfg.array.dual_channel = false;
  expect_modes_equivalent(cfg, layer_of(1, 2, 2, 8, 3), 41);
  expect_modes_equivalent(cfg, layer_of(1, 1, 2, 10, 5), 42);
}

TEST(ExecModeEquivalence, BiasApplied) {
  Tensor<std::int16_t> bias(Shape{2});
  bias.at_flat(0) = 100;
  bias.at_flat(1) = -50;
  expect_modes_equivalent(small_config(), layer_of(1, 1, 2, 6, 3), 51, &bias);
  AcceleratorConfig staged = small_config();
  staged.psum_storage = PsumStorage::kStaged16;
  expect_modes_equivalent(staged, layer_of(1, 1, 2, 6, 3), 52, &bias);
}

TEST(ExecModeEquivalence, MultipleCTilesWithPsumSpill) {
  // channels_per_group beyond the kMemory residency forces c_tiles > 1
  // and the DRAM psum spill between residencies.
  AcceleratorConfig cfg = small_config(64);
  cfg.array.kmem_words_per_pe = 4;
  const auto p = layer_of(1, 8, 3, 7, 3);
  ChainAccelerator probe(cfg);
  ASSERT_GT(probe.plan(p).c_tiles, 1);
  expect_modes_equivalent(cfg, p, 61);
}

TEST(ExecModeEquivalence, NetworkRunnerOverride) {
  // The cycle-accurate config, overridden to the analytical engine,
  // profiles a small network; totals must agree with the cycle-accurate
  // run.
  nn::NetworkModel net;
  net.name = "tiny";
  net.conv_layers = {layer_of(1, 2, 3, 10, 3, 1, 1),
                     layer_of(1, 3, 4, 10, 3)};
  Rng rng(81);
  Tensor<std::int16_t> input(Shape{2, 2, 10, 10});
  input.fill_random(rng, -80, 80);

  const energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  AcceleratorConfig cfg = small_config();

  ChainAccelerator acc_cycle(cfg);
  NetworkRunner runner_cycle(acc_cycle, energy);
  const NetworkRunResult rc = runner_cycle.run(net, input, {});

  cfg.exec_mode = ExecMode::kAnalytical;
  ChainAccelerator acc_fast(cfg);
  NetworkRunner runner_fast(acc_fast, energy);
  const NetworkRunResult ra = runner_fast.run(net, input, {});

  EXPECT_TRUE(rc.all_verified());
  EXPECT_TRUE(ra.all_verified());
  EXPECT_EQ(ra.final_activations, rc.final_activations);
  ASSERT_EQ(ra.layers.size(), rc.layers.size());
  for (std::size_t i = 0; i < ra.layers.size(); ++i) {
    EXPECT_EQ(ra.layers[i].run.ofmaps, rc.layers[i].run.ofmaps) << i;
    EXPECT_EQ(ra.layers[i].run.stats.total_cycles(),
              rc.layers[i].run.stats.total_cycles())
        << i;
    EXPECT_EQ(ra.layers[i].run.traffic, rc.layers[i].run.traffic) << i;
  }
  EXPECT_DOUBLE_EQ(ra.total_seconds(), rc.total_seconds());
}

TEST(ExecModeEquivalence, DerivedFiguresMatch) {
  // seconds / throughput / utilization flow from cycles, so they must be
  // identical too.
  const auto p = layer_of(2, 2, 3, 9, 3, 1, 1);
  const TestData d = make_data(p, 91);
  AcceleratorConfig cfg = small_config();
  ChainAccelerator cycle(cfg);
  cfg.exec_mode = ExecMode::kAnalytical;
  ChainAccelerator fast(cfg);
  const LayerRunResult rc = cycle.run_layer(p, d.ifmaps, d.kernels);
  const LayerRunResult ra = fast.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_DOUBLE_EQ(ra.seconds(), rc.seconds());
  EXPECT_DOUBLE_EQ(ra.achieved_ops_per_s(), rc.achieved_ops_per_s());
  EXPECT_DOUBLE_EQ(ra.utilization(), rc.utilization());
}

}  // namespace
}  // namespace chainnn::chain
