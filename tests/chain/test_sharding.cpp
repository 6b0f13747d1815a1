// Sharded ChainAccelerator::run_layer: splitting a batch across pool
// workers must be an exact refactoring of the in-place path —
// bit-identical ofmaps, accumulators, cycle counts and traffic for any
// worker count, including worker counts that do not divide the batch
// (and exceed it).
#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "energy/energy_model.hpp"
#include "nn/golden.hpp"
#include "nn/models.hpp"

namespace chainnn::chain {
namespace {

AcceleratorConfig small_config(std::int64_t pes = 64) {
  AcceleratorConfig cfg;
  cfg.array.num_pes = pes;
  cfg.array.kmem_words_per_pe = 64;
  return cfg;
}

nn::ConvLayerParams layer_of(std::int64_t n, std::int64_t c, std::int64_t m,
                             std::int64_t hw, std::int64_t k,
                             std::int64_t stride = 1, std::int64_t pad = 0,
                             std::int64_t groups = 1) {
  nn::ConvLayerParams p;
  p.name = "batch_test";
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

void expect_identical(const LayerRunResult& serial,
                      const LayerRunResult& merged) {
  EXPECT_EQ(serial.accumulators, merged.accumulators);
  EXPECT_EQ(serial.ofmaps, merged.ofmaps);

  EXPECT_EQ(serial.stats.kernel_load_cycles, merged.stats.kernel_load_cycles);
  EXPECT_EQ(serial.stats.stream_cycles, merged.stats.stream_cycles);
  EXPECT_EQ(serial.stats.drain_cycles, merged.stats.drain_cycles);
  EXPECT_EQ(serial.stats.total_cycles(), merged.stats.total_cycles());
  EXPECT_EQ(serial.stats.windows_collected, merged.stats.windows_collected);
  EXPECT_EQ(serial.stats.macs_performed, merged.stats.macs_performed);
  EXPECT_EQ(serial.stats.passes, merged.stats.passes);

  EXPECT_EQ(serial.traffic.dram_bytes, merged.traffic.dram_bytes);
  EXPECT_EQ(serial.traffic.imemory_bytes, merged.traffic.imemory_bytes);
  EXPECT_EQ(serial.traffic.kmemory_bytes, merged.traffic.kmemory_bytes);
  EXPECT_EQ(serial.traffic.omemory_bytes, merged.traffic.omemory_bytes);

  EXPECT_EQ(serial.narrowing.count, merged.narrowing.count);
  EXPECT_EQ(serial.narrowing.saturations, merged.narrowing.saturations);

  EXPECT_DOUBLE_EQ(serial.seconds(), merged.seconds());
  EXPECT_DOUBLE_EQ(serial.utilization(), merged.utilization());
}

// Runs `p` sharded on a fresh accelerator and checks that its own
// hierarchy counted exactly the merged result's traffic.
LayerRunResult run_sharded(const AcceleratorConfig& cfg,
                           const nn::ConvLayerParams& p, const TestData& d,
                           std::int64_t workers,
                           const Tensor<std::int16_t>* bias = nullptr) {
  ChainAccelerator acc(cfg);
  LayerRunResult r = acc.run_layer(p, d.ifmaps, d.kernels, bias, workers);
  const mem::MemoryHierarchy& h = acc.hierarchy();
  EXPECT_EQ(h.dram().stats().total_bytes(), r.traffic.dram_bytes);
  EXPECT_EQ(h.imemory().stats().total_bytes(), r.traffic.imemory_bytes);
  EXPECT_EQ(h.kmemory().stats().total_bytes(), r.traffic.kmemory_bytes);
  EXPECT_EQ(h.omemory().stats().total_bytes(), r.traffic.omemory_bytes);
  return r;
}

class ShardedRunLayer : public ::testing::TestWithParam<std::int64_t> {};

// Divisible and non-divisible batches: 8 images over {1, 2, 8} workers
// and 5 images over {1, 2, 8} workers (5 % 2 != 0 and 8 > 5, so the
// sharder must handle both remainders and idle workers).
TEST_P(ShardedRunLayer, BitIdenticalToSerialDivisibleBatch) {
  const auto p = layer_of(8, 2, 3, 8, 3);
  const TestData d = make_data(p, 11);
  ChainAccelerator acc(small_config());
  const LayerRunResult serial = acc.run_layer(p, d.ifmaps, d.kernels);

  expect_identical(serial, run_sharded(small_config(), p, d, GetParam()));
}

TEST_P(ShardedRunLayer, BitIdenticalToSerialNonDivisibleBatch) {
  const auto p = layer_of(5, 2, 3, 8, 3);
  const TestData d = make_data(p, 12);
  ChainAccelerator acc(small_config());
  const LayerRunResult serial = acc.run_layer(p, d.ifmaps, d.kernels);

  expect_identical(serial, run_sharded(small_config(), p, d, GetParam()));
}

// Strided + padded + grouped layer: exercises the sub-convolution phase
// decomposition, psum spills and multiple m-groups under sharding.
TEST_P(ShardedRunLayer, BitIdenticalToSerialStridedGrouped) {
  const auto p = layer_of(6, 4, 4, 9, 3, /*stride=*/2, /*pad=*/1,
                          /*groups=*/2);
  const TestData d = make_data(p, 13);
  ChainAccelerator acc(small_config());
  const LayerRunResult serial = acc.run_layer(p, d.ifmaps, d.kernels);

  expect_identical(serial, run_sharded(small_config(), p, d, GetParam()));
}

// Asymmetric (per-axis) padding flows through the plan, the controller's
// pixel fetch and the merge unchanged.
TEST_P(ShardedRunLayer, BitIdenticalToSerialAsymmetricPadding) {
  auto p = layer_of(5, 2, 2, 8, 3);
  p.pad_h = 1;
  p.pad_w = 0;
  p.validate();
  const TestData d = make_data(p, 14);
  ChainAccelerator acc(small_config());
  const LayerRunResult serial = acc.run_layer(p, d.ifmaps, d.kernels);
  EXPECT_EQ(serial.accumulators,
            nn::conv2d_fixed_accum(p, d.ifmaps, d.kernels));

  expect_identical(serial, run_sharded(small_config(), p, d, GetParam()));
}

// The staged 16-bit psum policy uses a different accumulate path; the
// merge must be exact there too.
TEST_P(ShardedRunLayer, BitIdenticalToSerialStaged16) {
  AcceleratorConfig cfg = small_config();
  cfg.psum_storage = PsumStorage::kStaged16;
  const auto p = layer_of(5, 2, 3, 8, 3);
  const TestData d = make_data(p, 15);
  ChainAccelerator acc(cfg);
  const LayerRunResult serial = acc.run_layer(p, d.ifmaps, d.kernels);

  expect_identical(serial, run_sharded(cfg, p, d, GetParam()));
}

TEST_P(ShardedRunLayer, BitIdenticalToSerialWithBias) {
  const auto p = layer_of(5, 2, 3, 8, 3);
  const TestData d = make_data(p, 16);
  Rng rng(17);
  Tensor<std::int16_t> bias(Shape{p.out_channels});
  bias.fill_random(rng, -50, 50);

  ChainAccelerator acc(small_config());
  const LayerRunResult serial = acc.run_layer(p, d.ifmaps, d.kernels, &bias);

  expect_identical(serial, run_sharded(small_config(), p, d, GetParam(), &bias));
}

INSTANTIATE_TEST_SUITE_P(Workers, ShardedRunLayer,
                         ::testing::Values<std::int64_t>(1, 2, 8));

TEST(Sharding, ShardRangesPartitionTheBatch) {
  for (std::int64_t batch : {1, 2, 5, 7, 8, 16}) {
    for (std::int64_t workers : {1, 2, 3, 8}) {
      std::int64_t next = 0;
      std::int64_t largest = 0, smallest = batch;
      for (std::int64_t w = 0; w < workers; ++w) {
        const auto [first, last] = shard_range(batch, w, workers);
        EXPECT_EQ(first, next) << "batch=" << batch << " w=" << w;
        EXPECT_LE(first, last);
        next = last;
        largest = std::max(largest, last - first);
        smallest = std::min(smallest, last - first);
      }
      EXPECT_EQ(next, batch);
      EXPECT_LE(largest - smallest, 1) << "unbalanced shards";
    }
  }
}

// NetworkRunner with num_workers > 1 must reproduce the serial network
// run exactly: activations, per-layer cycles/traffic, verification flags
// and the modelled power/energy roll-ups.
TEST(Sharding, NetworkRunnerParallelMatchesSerial) {
  const auto energy = energy::EnergyModel::paper_calibrated();
  nn::NetworkModel net;
  net.name = "tiny2";
  net.conv_layers = {layer_of(1, 2, 4, 12, 3, 1, 1),
                     layer_of(1, 4, 4, 12, 3, 2, 1)};

  Rng rng(21);
  Tensor<std::int16_t> input(Shape{5, 2, 12, 12});
  input.fill_random(rng, -80, 80);

  ChainAccelerator acc_serial(small_config());
  NetworkRunner serial(acc_serial, energy);
  const NetworkRunResult rs = serial.run(net, input);

  ChainAccelerator acc_par(small_config());
  NetworkRunner parallel(acc_par, energy);
  NetworkRunOptions opts;
  opts.num_workers = 3;
  const NetworkRunResult rp = parallel.run(net, input, opts);

  ASSERT_EQ(rs.layers.size(), rp.layers.size());
  EXPECT_EQ(rs.final_activations, rp.final_activations);
  EXPECT_TRUE(rs.all_verified());
  EXPECT_TRUE(rp.all_verified());
  for (std::size_t i = 0; i < rs.layers.size(); ++i) {
    EXPECT_EQ(rs.layers[i].run.ofmaps, rp.layers[i].run.ofmaps);
    EXPECT_EQ(rs.layers[i].run.stats.total_cycles(),
              rp.layers[i].run.stats.total_cycles());
    EXPECT_EQ(rs.layers[i].run.traffic.dram_bytes,
              rp.layers[i].run.traffic.dram_bytes);
    EXPECT_DOUBLE_EQ(rs.layers[i].power.total(), rp.layers[i].power.total());
  }
  EXPECT_DOUBLE_EQ(rs.total_seconds(), rp.total_seconds());
  EXPECT_DOUBLE_EQ(rs.total_energy_j(), rp.total_energy_j());
  EXPECT_DOUBLE_EQ(rs.fps(5), rp.fps(5));
}

// Repeated parallel runs are deterministic run-to-run (no dependence on
// thread scheduling).
TEST(Sharding, RunToRunDeterminism) {
  const auto p = layer_of(7, 2, 3, 10, 3, 1, 1);
  const TestData d = make_data(p, 31);
  ChainAccelerator acc(small_config());
  const LayerRunResult first =
      acc.run_layer(p, d.ifmaps, d.kernels, nullptr, 4);
  for (int i = 0; i < 3; ++i)
    expect_identical(first,
                     acc.run_layer(p, d.ifmaps, d.kernels, nullptr, 4));
}

TEST(Sharding, RejectsInvalidWorkerCount) {
  const auto p = layer_of(2, 1, 1, 4, 3);
  const TestData d = make_data(p, 32);
  ChainAccelerator acc(small_config());
  EXPECT_THROW((void)acc.run_layer(p, d.ifmaps, d.kernels, nullptr, 0),
               std::logic_error);
}

}  // namespace
}  // namespace chainnn::chain
