// Router: layer-geometry resolution matches NetworkRunner, modelled
// request cycles equal executed runs on both engines, and
// earliest-finish-time placement over per-chip backlogs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {
namespace {

nn::NetworkModel pooled_net() {
  nn::NetworkModel net;
  net.name = "pooled";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 4;
  l1.in_height = l1.in_width = 16;
  l1.kernel = 3;
  l1.pad = 1;
  l1.validate();
  nn::ConvLayerParams l2;
  l2.name = "c2";
  l2.in_channels = 4;
  l2.out_channels = 2;
  l2.in_height = l2.in_width = 8;  // nominal; resolution must recompute
  l2.kernel = 3;
  l2.pad = 1;
  l2.validate();
  net.conv_layers = {l1, l2};
  return net;
}

std::vector<chain::InterLayerOp> pool_after_first() {
  chain::InterLayerOp op;
  op.pool = true;
  op.pool_params = {2, 2, 0};
  return {op};
}

TEST(Router, ResolvedLayersMatchTheExecutedNetwork) {
  const nn::NetworkModel net = pooled_net();
  const auto inter = pool_after_first();
  const std::int64_t batch = 3;

  const std::vector<nn::ConvLayerParams> resolved =
      resolve_network_layers(net, batch, 16, 16, inter);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].in_height, 16);
  EXPECT_EQ(resolved[1].in_height, 8);  // 16 -> conv(pad 1) 16 -> pool 8
  EXPECT_EQ(resolved[1].in_width, 8);
  EXPECT_EQ(resolved[0].batch, batch);

  // Cross-check against what NetworkRunner actually executed.
  chain::AcceleratorConfig cfg;
  cfg.exec_mode = chain::ExecMode::kAnalytical;
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  Tensor<std::int16_t> input(Shape{batch, 2, 16, 16});
  Rng rng(5);
  input.fill_random(rng, -64, 64);
  chain::NetworkRunOptions ro;
  ro.inter_layer = inter;
  const chain::NetworkRunResult run = runner.run(net, input, ro);
  ASSERT_EQ(run.layers.size(), resolved.size());
  for (std::size_t i = 0; i < resolved.size(); ++i)
    EXPECT_TRUE(resolved[i] == run.layers[i].layer)
        << "layer " << i << " geometry drifted from NetworkRunner";
}

// A small net with its input size and inter-layer ops.
struct SizedNet {
  nn::NetworkModel net;
  std::int64_t in_size = 0;
  std::vector<chain::InterLayerOp> inter;
};

// One random conv layer (strided and padded ones included) that every
// default fleet chip can map.
SizedNet random_net(Rng& rng, int index) {
  nn::ConvLayerParams l;
  l.name = "r" + std::to_string(index);
  l.in_channels = rng.uniform_int(1, 3);
  l.out_channels = rng.uniform_int(1, 4);
  l.kernel = 2 * rng.uniform_int(0, 2) + 1;  // 1, 3 or 5
  l.stride = rng.uniform_int(1, 2);
  l.pad = rng.uniform_int(0, l.kernel / 2);
  l.in_height = l.in_width = rng.uniform_int(l.kernel + 1, 12);
  l.validate();
  SizedNet r;
  r.net.name = l.name;
  r.net.conv_layers = {l};
  r.in_size = l.in_height;
  return r;
}

// The cycles a NetworkRunner run records: the figure the router models.
std::int64_t executed_cycles(const ChipSpec& chip,
                             const dataflow::ArrayShape& array,
                             chain::ExecMode mode, const SizedNet& n,
                             std::int64_t batch) {
  chain::AcceleratorConfig cfg;
  cfg.array = array;
  cfg.memory = chip.memory;
  cfg.exec_mode = mode;
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  Tensor<std::int16_t> input(Shape{
      batch, n.net.conv_layers.front().in_channels, n.in_size, n.in_size});
  Rng rng(static_cast<std::uint64_t>(batch) * 977 + 3);
  input.fill_random(rng, -64, 64);
  chain::NetworkRunOptions ro;
  ro.inter_layer = n.inter;
  ro.verify_against_golden = false;
  std::int64_t cycles = 0;
  for (const auto& l : runner.run(n.net, input, ro).layers)
    cycles += l.run.stats.total_cycles();
  return cycles;
}

// Fills the shared cache entries a request on `memory` will hit through
// `array`, which differs from the array the request is costed with only
// outside the plan key.
void populate(PlanCache& cache, const SizedNet& n, std::int64_t batch,
              const dataflow::ArrayShape& array,
              const mem::HierarchyConfig& memory) {
  for (const nn::ConvLayerParams& layer :
       resolve_network_layers(n.net, batch, n.in_size, n.in_size, n.inter))
    (void)cache.shared_plan_for(layer, array, memory);
}

TEST(Router, ModelledCyclesEqualExecutedRunsOnBothEngines) {
  Rng rng(0x5EED);
  std::vector<SizedNet> nets;
  for (int i = 0; i < 5; ++i) nets.push_back(random_net(rng, i));
  nets.push_back({pooled_net(), 16, pool_after_first()});

  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  for (const SizedNet& n : nets) {
    for (const std::int64_t batch : {1, 2, 7}) {
      for (std::size_t c = 0; c < router.chips().size(); ++c) {
        const ChipSpec& chip = router.chips()[c];
        dataflow::ArrayShape other = chip.array;
        other.dual_channel = !other.dual_channel;
        other.pipeline_stages += 2;
        other.clock_hz *= 2;
        populate(*cache, n, batch, other, chip.memory);

        const std::uint64_t misses = cache->stats().misses;
        const std::int64_t modelled = router.modelled_request_cycles(
            c, n.net, batch, n.in_size, n.in_size, n.inter);
        EXPECT_EQ(cache->stats().misses, misses);  // costed shared entries
        for (const chain::ExecMode mode :
             {chain::ExecMode::kAnalytical, chain::ExecMode::kCycleAccurate})
          EXPECT_EQ(modelled,
                    executed_cycles(chip, chip.array, mode, n, batch))
              << chip.name << " " << chain::exec_mode_name(mode) << " "
              << n.net.conv_layers.front().to_string() << " batch "
              << batch;
      }
    }
  }

}

TEST(Router, RoutesToEarliestModelledFinish) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();

  // Empty fleet: the first request lands on the chip with the smallest
  // bare modelled time.
  const RouteDecision first = router.route(net, 1, 16, 16, {});
  double best = router.modelled_request_seconds(0, net, 1, 16, 16, {});
  std::size_t best_chip = 0;
  for (std::size_t c = 1; c < router.chips().size(); ++c) {
    const double s = router.modelled_request_seconds(c, net, 1, 16, 16, {});
    if (s < best) {
      best = s;
      best_chip = c;
    }
  }
  EXPECT_EQ(first.chip, best_chip);
  EXPECT_DOUBLE_EQ(first.request_seconds, best);
  EXPECT_DOUBLE_EQ(first.backlog_seconds, 0.0);

  // Pile modelled backlog onto that chip: the next identical request
  // must be placed elsewhere once the backlog outweighs the per-chip
  // modelled-time gap.
  RouteDecision loaded = first;
  loaded.request_seconds = 1.0;  // a second of modelled work
  router.dispatch(loaded);
  const RouteDecision second = router.route(net, 1, 16, 16, {});
  EXPECT_NE(second.chip, first.chip);

  // Retiring the backlog restores the original placement.
  router.complete(loaded.chip, loaded.request_seconds);
  const RouteDecision third = router.route(net, 1, 16, 16, {});
  EXPECT_EQ(third.chip, first.chip);
}

TEST(Router, DispatchAndCompleteKeepCounters) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();

  const RouteDecision d = router.route(net, 1, 16, 16, {});
  router.dispatch(d);
  router.dispatch(d);
  EXPECT_EQ(router.routed_counts()[d.chip], 2);
  EXPECT_DOUBLE_EQ(router.backlog_seconds()[d.chip], 2 * d.request_seconds);
  EXPECT_DOUBLE_EQ(router.dispatched_seconds()[d.chip],
                   2 * d.request_seconds);

  router.complete(d.chip, d.request_seconds);
  EXPECT_DOUBLE_EQ(router.backlog_seconds()[d.chip], d.request_seconds);
  // Cumulative busy time never decreases.
  EXPECT_DOUBLE_EQ(router.dispatched_seconds()[d.chip],
                   2 * d.request_seconds);
}

TEST(Router, RouteAndDispatchCommitsAtomically) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();

  // The decision and its backlog charge commit together, so the second
  // call must already see the first one's backlog.
  const RouteDecision d0 = router.route_and_dispatch(net, 1, 16, 16, {});
  const RouteDecision d1 = router.route_and_dispatch(net, 1, 16, 16, {});
  EXPECT_DOUBLE_EQ(d0.backlog_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d1.backlog_seconds,
                   d0.chip == d1.chip ? d0.request_seconds : 0.0);

  std::int64_t routed_total = 0;
  double backlog_total = 0.0;
  for (std::size_t c = 0; c < router.chips().size(); ++c) {
    routed_total += router.routed_counts()[c];
    backlog_total += router.backlog_seconds()[c];
  }
  EXPECT_EQ(routed_total, 2);
  EXPECT_DOUBLE_EQ(backlog_total, d0.request_seconds + d1.request_seconds);
}

}  // namespace
}  // namespace chainnn::serve
