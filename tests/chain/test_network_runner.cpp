#include "chain/network_runner.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/models.hpp"
#include "serve/sweep_driver.hpp"

namespace chainnn::chain {
namespace {

nn::NetworkModel tiny_net() {
  nn::NetworkModel net;
  net.name = "tiny";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 1;
  l1.out_channels = 4;
  l1.in_height = l1.in_width = 12;
  l1.kernel = 3;
  l1.pad = 1;
  nn::ConvLayerParams l2;
  l2.name = "c2";
  l2.in_channels = 4;
  l2.out_channels = 6;
  l2.in_height = l2.in_width = 6;  // resolved at run time anyway
  l2.kernel = 3;
  l2.pad = 1;
  net.conv_layers = {l1, l2};
  return net;
}

AcceleratorConfig small_cfg() {
  AcceleratorConfig cfg;
  cfg.array.num_pes = 64;
  cfg.array.kmem_words_per_pe = 32;
  return cfg;
}

TEST(NetworkRunner, RunsAndVerifiesTwoLayers) {
  AcceleratorConfig cfg = small_cfg();
  ChainAccelerator acc(cfg);
  const auto model = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, model);

  Rng rng(3);
  Tensor<std::int16_t> input(Shape{1, 1, 12, 12});
  input.fill_random(rng, -64, 64);

  NetworkRunOptions opts;
  opts.inter_layer = {InterLayerOp{true, true, nn::PoolParams{2, 2, 0}},
                      InterLayerOp{true, false, {}}};
  const NetworkRunResult res = runner.run(tiny_net(), input, opts);

  ASSERT_EQ(res.layers.size(), 2u);
  EXPECT_TRUE(res.all_verified());
  // Layer 2's input size was resolved from the pooled layer-1 output.
  EXPECT_EQ(res.layers[1].layer.in_height, 6);
  // Final activations: 6 channels, 6x6 spatial (pad-1 conv keeps size).
  EXPECT_EQ(res.final_activations.shape(), Shape({1, 6, 6, 6}));
  EXPECT_GT(res.total_seconds(), 0.0);
  EXPECT_GT(res.total_energy_j(), 0.0);
}

TEST(NetworkRunner, FpsImprovesWithBatchAmortization) {
  AcceleratorConfig cfg = small_cfg();
  ChainAccelerator acc(cfg);
  const auto model = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, model);

  Rng rng(4);
  Tensor<std::int16_t> input(Shape{1, 1, 12, 12});
  input.fill_random(rng, -32, 32);
  const NetworkRunResult res = runner.run(tiny_net(), input);
  EXPECT_GT(res.fps(128), res.fps(1));
}

TEST(NetworkRunner, FpsEqualsExecutedBatchRuns) {
  // fps(b) read off a batch-1 run is the throughput a batch-b run
  // executes: kernels load once per batch and the chain drain is paid
  // once per run, not once per image.
  AcceleratorConfig cfg;
  cfg.exec_mode = ExecMode::kAnalytical;
  ChainAccelerator acc(cfg);
  const auto model = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, model);
  const nn::NetworkModel net = serve::channel_reduced_proxy(nn::alexnet(), 4);
  InterLayerOp pooled;
  pooled.pool = true;
  NetworkRunOptions opts;
  opts.inter_layer = {pooled, pooled};  // AlexNet's pools after conv1/2
  // Only fps is checked here; the golden cross-check is pinned by
  // ExecModeEquivalence.NetworkRunnerOverride.
  opts.verify_against_golden = false;

  const auto run = [&](std::int64_t batch) {
    Rng rng(static_cast<std::uint64_t>(batch));
    Tensor<std::int16_t> input(Shape{batch, 3, 227, 227});
    input.fill_random(rng, -32, 32);
    return runner.run(net, input, opts);
  };
  const NetworkRunResult single = run(1);
  for (const std::int64_t b : {2, 4, 8})
    EXPECT_DOUBLE_EQ(single.fps(b),
                     static_cast<double>(b) / run(b).total_seconds())
        << "batch " << b;
}

TEST(NetworkRunner, ChannelMismatchRejected) {
  AcceleratorConfig cfg = small_cfg();
  ChainAccelerator acc(cfg);
  const auto model = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, model);
  Tensor<std::int16_t> bad_input(Shape{1, 3, 12, 12});  // net expects 1
  EXPECT_THROW((void)runner.run(tiny_net(), bad_input), std::logic_error);
}

TEST(NetworkRunner, CustomWeightInitUsed) {
  AcceleratorConfig cfg = small_cfg();
  ChainAccelerator acc(cfg);
  const auto model = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, model);

  Tensor<std::int16_t> input(Shape{1, 1, 12, 12}, std::int16_t{256});
  NetworkRunOptions opts;
  opts.weight_init = [](std::int64_t, Tensor<std::int16_t>& w) {
    w.fill(0);  // all-zero kernels -> all-zero outputs
  };
  const NetworkRunResult res = runner.run(tiny_net(), input, opts);
  for (const std::int16_t v : res.final_activations.data())
    EXPECT_EQ(v, 0);
}

TEST(NetworkRunner, SkipVerificationStillRuns) {
  AcceleratorConfig cfg = small_cfg();
  ChainAccelerator acc(cfg);
  const auto model = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, model);
  Rng rng(5);
  Tensor<std::int16_t> input(Shape{1, 1, 12, 12});
  input.fill_random(rng, -8, 8);
  NetworkRunOptions opts;
  opts.verify_against_golden = false;
  const NetworkRunResult res = runner.run(tiny_net(), input, opts);
  EXPECT_TRUE(res.all_verified());  // vacuously marked verified
}

TEST(NetworkRunner, CancelCheckStopsBetweenLayers) {
  AcceleratorConfig cfg = small_cfg();
  ChainAccelerator acc(cfg);
  const auto model = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, model);

  Rng rng(3);
  Tensor<std::int16_t> input(Shape{1, 1, 12, 12});
  input.fill_random(rng, -64, 64);

  // Trip the token while layer 0's weights are drawn: the checkpoint
  // before layer 1 must abort the run with exactly one layer executed.
  bool cancel = false;
  NetworkRunOptions opts;
  opts.weight_init = [&cancel](std::int64_t layer_index,
                               Tensor<std::int16_t>& kernels) {
    if (layer_index == 0) cancel = true;
    Rng wrng(9);
    kernels.fill_random(wrng, -16, 16);
  };
  opts.cancel_check = [&cancel] { return cancel; };
  try {
    (void)runner.run(tiny_net(), input, opts);
    FAIL() << "expected RunCancelled";
  } catch (const RunCancelled& cancelled) {
    EXPECT_EQ(cancelled.completed_layers(), 1);
  }

  // A pre-tripped token cancels before any layer runs.
  opts.weight_init = nullptr;
  try {
    (void)runner.run(tiny_net(), input, opts);
    FAIL() << "expected RunCancelled";
  } catch (const RunCancelled& cancelled) {
    EXPECT_EQ(cancelled.completed_layers(), 0);
  }

  // And an untripped token leaves the run untouched.
  cancel = false;
  const NetworkRunResult res = runner.run(tiny_net(), input, opts);
  EXPECT_EQ(res.layers.size(), 2u);
}

// A run that passes no plan_cache resolves every plan through the
// accelerator's own cache, also with the engine overridden in the
// accelerator config: the first run of a network plans into that cache,
// and the second only hits it.
TEST(NetworkRunner, OverrideRunUsesTheAcceleratorsPlanCache) {
  const auto model = energy::EnergyModel::paper_calibrated();
  Rng rng(6);
  Tensor<std::int16_t> input(Shape{4, 1, 12, 12});
  input.fill_random(rng, -64, 64);

  AcceleratorConfig cfg = small_cfg();
  cfg.exec_mode = ExecMode::kAnalytical;
  ChainAccelerator acc(cfg);
  NetworkRunner runner(acc, model);
  (void)runner.run(tiny_net(), input, {});
  const serve::PlanCacheStats first = acc.plan_cache()->stats();
  EXPECT_GT(first.misses, 0u);
  (void)runner.run(tiny_net(), input, {});
  const serve::PlanCacheStats second = acc.plan_cache()->stats();
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.misses, first.misses);
}

// Naming the accelerator's own cache and arena overrides nothing: the
// run plans into that cache and allocates from that arena.
TEST(NetworkRunner, RunNamingTheAcceleratorsOwnCacheAndArenaExecutesOnIt) {
  const auto model = energy::EnergyModel::paper_calibrated();
  Rng rng(7);
  Tensor<std::int16_t> input(Shape{4, 1, 12, 12});
  input.fill_random(rng, -64, 64);

  AcceleratorConfig cfg = small_cfg();
  cfg.arena = std::make_shared<TensorArena>();
  ChainAccelerator acc(cfg);
  NetworkRunner runner(acc, model);
  NetworkRunOptions opts;
  opts.plan_cache = acc.plan_cache();
  opts.arena = cfg.arena;
  ASSERT_EQ(acc.plan_cache()->stats().entries, 0u);
  ASSERT_EQ(cfg.arena->stats().allocations, 0);
  const NetworkRunResult res = runner.run(tiny_net(), input, opts);

  ASSERT_EQ(res.layers.size(), 2u);
  // One plan per conv layer landed in the named cache.
  EXPECT_EQ(acc.plan_cache()->stats().entries, 2u);
  // Each layer's ofmaps came from the named arena.
  EXPECT_GE(cfg.arena->stats().allocations, 2);
}

}  // namespace
}  // namespace chainnn::chain
