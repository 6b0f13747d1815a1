// The tensor-free closed-form point cost (dataflow::estimate_point_cost)
// must agree with the *executed* SweepDriver rollups: cycles exactly
// (identical integer closed forms), seconds and energy to double
// round-off (identical expressions, identical evaluation order). This is
// the fidelity contract the design-space search rests on.
#include <gtest/gtest.h>

#include <vector>

#include "dataflow/point_cost.hpp"
#include "serve/router.hpp"
#include "serve/sweep_driver.hpp"

namespace chainnn::dataflow {
namespace {

nn::NetworkModel tiny_net() {
  nn::NetworkModel net;
  net.name = "tiny";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 4;
  l1.in_height = l1.in_width = 10;
  l1.kernel = 3;
  l1.pad = 1;
  l1.validate();
  nn::ConvLayerParams l2;
  l2.name = "c2";
  l2.in_channels = 4;
  l2.out_channels = 3;
  l2.in_height = l2.in_width = 10;
  l2.kernel = 3;
  l2.pad = 1;
  l2.validate();
  net.conv_layers = {l1, l2};
  return net;
}

// Executes every default sweep point and cross-checks the closed forms
// against the rolled-up run, at the given batch.
void cross_check_at_batch(std::int64_t batch) {
  const nn::NetworkModel net = tiny_net();
  serve::SweepOptions so;
  so.batch = batch;
  serve::SweepDriver driver(net, so);
  const auto executed = driver.run(serve::default_sweep_points());
  ASSERT_FALSE(executed.empty());

  const auto& first = net.conv_layers.front();
  const std::vector<nn::ConvLayerParams> layers =
      serve::resolve_network_layers(net, batch, first.in_height,
                                    first.in_width, {});
  for (const auto& r : executed) {
    SCOPED_TRACE(r.point.name + " batch " + std::to_string(batch));
    PointCostOptions opts;
    opts.batch = batch;
    const PointCost est =
        estimate_point_cost(layers, r.point.array, mem::HierarchyConfig{},
                            opts);
    ASSERT_TRUE(est.feasible) << est.infeasible_reason;
    EXPECT_EQ(est.total_cycles, r.total_cycles);
    EXPECT_NEAR(est.seconds, r.seconds, 1e-9 * r.seconds);
    EXPECT_NEAR(est.energy_j, r.energy_j, 1e-9 * r.energy_j);
  }
}

TEST(PointCost, MatchesExecutedSweepRollupsBatch1) { cross_check_at_batch(1); }

TEST(PointCost, MatchesExecutedSweepRollupsBatch3) { cross_check_at_batch(3); }

TEST(PointCost, SingleChannelModeMatchesExecution) {
  const nn::NetworkModel net = tiny_net();
  serve::SweepDriver driver(net, {});
  ArrayShape single;
  single.dual_channel = false;
  const auto executed = driver.run({{"single", single}});
  ASSERT_EQ(executed.size(), 1u);

  const auto& first = net.conv_layers.front();
  const PointCost est = estimate_point_cost(
      serve::resolve_network_layers(net, 1, first.in_height, first.in_width,
                                    {}),
      single, mem::HierarchyConfig{});
  ASSERT_TRUE(est.feasible);
  EXPECT_EQ(est.total_cycles, executed[0].total_cycles);
  EXPECT_NEAR(est.energy_j, executed[0].energy_j,
              1e-9 * executed[0].energy_j);
}

TEST(PointCost, UnmappableLayerYieldsInfeasibleNotThrow) {
  nn::NetworkModel net = tiny_net();
  net.conv_layers[0].kernel = 11;  // 11 taps on an 8-PE chain: unmappable
  net.conv_layers[0].pad = 5;
  net.conv_layers[0].validate();
  ArrayShape stub;
  stub.num_pes = 8;
  const auto& first = net.conv_layers.front();
  const PointCost bad = estimate_point_cost(
      serve::resolve_network_layers(net, 1, first.in_height, first.in_width,
                                    {}),
      stub, mem::HierarchyConfig{});
  EXPECT_FALSE(bad.feasible);
  EXPECT_FALSE(bad.infeasible_reason.empty());

  // An infeasible point neither dominates nor is dominated.
  PointCost good;
  good.total_cycles = 1;
  good.energy_j = 1.0;
  good.area_gates = 1.0;
  EXPECT_FALSE(good.dominates(bad));
  EXPECT_FALSE(bad.dominates(good));
}

TEST(PointCost, DominanceIsStrictOnEveryAxis) {
  PointCost a;
  a.total_cycles = 100;
  a.energy_j = 1.0;
  a.area_gates = 10.0;
  PointCost worse = a;
  worse.total_cycles = 101;
  worse.energy_j = 1.1;
  worse.area_gates = 10.5;
  EXPECT_TRUE(a.dominates(worse));
  EXPECT_FALSE(worse.dominates(a));

  // A clock variant — identical cycles and area, different energy — is
  // never eliminated: the tie blocks strict dominance.
  PointCost clocked = a;
  clocked.energy_j = 0.9;
  EXPECT_FALSE(clocked.dominates(a));
  EXPECT_FALSE(a.dominates(clocked));
  EXPECT_FALSE(a.dominates(a));
}

TEST(PointCost, SramBytesTrackTheChain) {
  const ArrayShape paper;  // 576 x 256 words x 2B
  const mem::HierarchyConfig mem;
  EXPECT_EQ(point_sram_bytes(paper, mem),
            32u * 1024 + 25u * 1024 + 576u * 256 * 2);

  ArrayShape longer = paper;
  longer.num_pes = 1152;
  EXPECT_EQ(point_sram_bytes(longer, mem) - point_sram_bytes(paper, mem),
            576u * 256 * 2);
}

TEST(PointCost, AreaOverloadAddsSramGateEquivalents) {
  const energy::AreaModel area;
  const double logic = area.total_gates(576);
  const std::uint64_t sram = 352 * 1024;
  EXPECT_DOUBLE_EQ(area.total_gates(576, sram),
                   logic + area.sram_gate_equiv_per_byte *
                               static_cast<double>(sram));
  EXPECT_GT(area.sram_gate_equiv_per_byte, 0.0);
}

}  // namespace
}  // namespace chainnn::dataflow
