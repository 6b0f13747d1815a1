#include "energy/energy_model.hpp"

#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "common/rng.hpp"
#include "nn/models.hpp"

namespace chainnn::energy {
namespace {

TEST(EnergyModel, CalibrationReproducesFig10Exactly) {
  // Fig. 10's four components are rows of report::fidelity_ledger().
  const EnergyModel model = EnergyModel::paper_calibrated();
  const PowerBreakdown p =
      model.power(paper_calibration_rates(), 700e6, 576);
  // Total 567.5 mW (§V.C).
  EXPECT_NEAR(p.total() * 1e3, 567.5, 0.5);
}

TEST(EnergyModel, CoreVsHierarchySplitMatchesPaper) {
  const EnergyModel model = EnergyModel::paper_calibrated();
  const PowerBreakdown p =
      model.power(paper_calibration_rates(), 700e6, 576);
  // §V.C: "around 90% of the power consumption is from the 1D chain
  // architecture including kMemory while only 10.55% is cost by the
  // memory hierarchy".
  EXPECT_NEAR(p.core_only() / p.total(), 0.893, 0.01);
  EXPECT_NEAR(p.memory_hierarchy() / p.total(), 0.107, 0.01);
}

TEST(EnergyModel, PowerScalesWithClock) {
  const EnergyModel model = EnergyModel::paper_calibrated();
  const ActivityRates r = paper_calibration_rates();
  const PowerBreakdown p700 = model.power(r, 700e6, 576);
  const PowerBreakdown p350 = model.power(r, 350e6, 576);
  // Dynamic power halves; leakage does not.
  EXPECT_LT(p350.total(), p700.total());
  EXPECT_GT(p350.total(), 0.45 * p700.total());
}

TEST(EnergyModel, PowerScalesWithChainSize) {
  const EnergyModel model = EnergyModel::paper_calibrated();
  ActivityRates r = paper_calibration_rates();
  const PowerBreakdown p576 = model.power(r, 700e6, 576);
  // Same per-PE activity on a double-size chain: chain power ~doubles.
  r.kmem_accesses_per_cycle *= 2.0;
  const PowerBreakdown p1152 = model.power(r, 700e6, 1152);
  EXPECT_NEAR(p1152.chain_w / p576.chain_w, 2.0, 0.01);
}

TEST(EnergyModel, IdlePEsCostLess) {
  const EnergyModel model = EnergyModel::paper_calibrated();
  ActivityRates busy = paper_calibration_rates();
  ActivityRates idle = busy;
  idle.active_pe_fraction = 0.5;
  const double pb = model.power(busy, 700e6, 576).chain_w;
  const double pi = model.power(idle, 700e6, 576).chain_w;
  EXPECT_LT(pi, pb);
  EXPECT_GT(pi, 0.5 * pb);  // idle PEs still leak/clock at 10%
}

TEST(EnergyModel, EnergyIntegratesPowerOverCycles) {
  const EnergyModel model = EnergyModel::paper_calibrated();
  const ActivityRates r = paper_calibration_rates();
  const double p = model.power(r, 700e6, 576).total();
  const double e = model.energy_j(r, 700e6, 576, 700000000ULL);
  EXPECT_NEAR(e, p, 1e-9);  // 1 second worth of cycles
}

TEST(EnergyModel, RatesFromPlanReasonableForAlexNetConv3) {
  const auto plan = dataflow::plan_layer(nn::alexnet().conv_layers[2],
                                         dataflow::ArrayShape{});
  const ActivityRates r = rates_from_plan(plan);
  EXPECT_DOUBLE_EQ(r.active_pe_fraction, 1.0);  // 576/576 for K=3
  // kMemory ~ paper's 2.2% per PE x 576 = ~12.8 accesses/cycle.
  EXPECT_NEAR(r.kmem_accesses_per_cycle, 0.022 * 576, 3.0);
  // iMemory: close to 2 words/cycle in steady state.
  EXPECT_GT(r.imem_accesses_per_cycle, 1.0);
  EXPECT_LT(r.imem_accesses_per_cycle, 4.1);
}

TEST(EnergyModel, RatesFromPlanPriceTheExecutedIMemoryTraffic) {
  // A 1 KiB iMemory cannot double-buffer this layer's strips, so every
  // m-group refetches them: the rates must be sized by the plan's memory,
  // not by the paper chip's 32 KiB.
  chain::AcceleratorConfig cfg;
  cfg.exec_mode = chain::ExecMode::kAnalytical;
  cfg.array.num_pes = 18;  // two 3x3 primitives
  cfg.memory.imemory_bytes = 1024;
  nn::ConvLayerParams layer;
  layer.name = "small_imem";
  layer.in_channels = 2;
  layer.out_channels = 4;
  layer.in_height = 8;
  layer.in_width = 64;
  layer.kernel = 3;
  layer.pad = 1;
  layer.validate();
  Rng rng(5);
  Tensor<std::int16_t> x(Shape{1, 2, 8, 64});
  Tensor<std::int16_t> w(Shape{4, 2, 3, 3});
  x.fill_random(rng, -16, 16);
  w.fill_random(rng, -4, 4);
  const chain::LayerRunResult res =
      chain::ChainAccelerator(cfg).run_layer(layer, x, w);
  ASSERT_EQ(res.traffic.imem_total(), 12288u);

  // iMemory bytes the rates imply: accesses per cycle x (stream + drain
  // cycles) x word bytes.
  const ActivityRates r = rates_from_plan(res.plan);
  const dataflow::LayerCycles c =
      dataflow::layer_cycles(res.plan, res.plan.array);
  const double implied = r.imem_accesses_per_cycle *
                         static_cast<double>(c.stream_per_image + c.drain) *
                         static_cast<double>(res.plan.memory.word_bytes);
  EXPECT_NEAR(implied, static_cast<double>(res.traffic.imem_total()), 1e-6);
}

TEST(Efficiency, GopsPerWatt) {
  EXPECT_DOUBLE_EQ(efficiency_gops_per_w(806.4e9, 0.5675),
                   806.4 / 0.5675);
  EXPECT_DOUBLE_EQ(efficiency_gops_per_w(1.0, 0.0), 0.0);
}

}  // namespace
}  // namespace chainnn::energy
