// The paper's headline claims, checked against our models end to end.
#include <gtest/gtest.h>

#include "baseline/memory_centric.hpp"
#include "baseline/spatial_2d.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/traffic.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "nn/models.hpp"
#include "report/paper_constants.hpp"

namespace chainnn {
namespace {

TEST(PaperClaims, Utilization84To100ForMainstreamKernels) {
  // §III.B: "84-100% PE utilization ratio considering the mainstreaming
  // CNN parameters".
  const dataflow::ArrayShape array;
  for (const std::int64_t k : {3, 5, 7, 9, 11}) {
    const double eff = dataflow::utilization_row(array, k).efficiency;
    EXPECT_GE(eff, 0.84) << "K=" << k;
    EXPECT_LE(eff, 1.0) << "K=" << k;
  }
}

TEST(PaperClaims, EfficiencyAtLeast2_5xOverBaselines) {
  const energy::EnergyModel model = energy::EnergyModel::paper_calibrated();
  const energy::PowerBreakdown p =
      model.power(energy::paper_calibration_rates(), 700e6, 576);
  const double ours =
      energy::efficiency_gops_per_w(2.0 * 576 * 700e6, p.total());

  const baseline::MemoryCentricModel dadiannao;
  EXPECT_GE(ours / dadiannao.efficiency_gops_per_w(),
            report::kMinEfficiencyGain);

  const double eyeriss_scaled = energy::scale_efficiency_to_node(
      baseline::Spatial2dModel().config().published_efficiency_gops_per_w,
      65.0, 28.0);
  EXPECT_GE(ours / eyeriss_scaled, report::kMinEfficiencyGain - 0.1);
}

TEST(PaperClaims, CoreOnlyComparisonFig10) {
  // §V.D: DaDianNao's core-only efficiency (~3.0 TOPS/W) beats
  // Chain-NN's (~1.7 TOPS/W), but whole-chip Chain-NN wins 4x.
  const baseline::MemoryCentricModel dadiannao;
  const energy::EnergyModel model = energy::EnergyModel::paper_calibrated();
  const energy::PowerBreakdown p =
      model.power(energy::paper_calibration_rates(), 700e6, 576);
  const double our_core =
      energy::efficiency_gops_per_w(2.0 * 576 * 700e6, p.chain_w);
  const double our_total =
      energy::efficiency_gops_per_w(2.0 * 576 * 700e6, p.total());

  EXPECT_GT(dadiannao.core_only_efficiency_gops_per_w(), our_core);
  EXPECT_GT(our_total / dadiannao.efficiency_gops_per_w(), 3.5);
}

TEST(PaperClaims, IfmapReuseIsK2InsidePrimitives) {
  // §V.C: "ifmaps are reused K2 times averagely inside systolic
  // primitives": each streamed pixel feeds K2 MACs. Equivalently, MACs
  // per iMemory word must be ~K2 per resident kernel.
  const auto conv3 = nn::alexnet().conv_layers[2];
  const auto plan = dataflow::plan_layer(conv3, dataflow::ArrayShape{});
  const auto t = dataflow::model_traffic(plan, 1);
  const double words = static_cast<double>(t.imem_reads) / 2.0;
  const double macs = static_cast<double>(conv3.macs_per_image());
  const double macs_per_word_per_kernel =
      macs / words / static_cast<double>(plan.primitives);
  // (2K-1)/K streaming overhead and edge effects push it a bit under K².
  EXPECT_GT(macs_per_word_per_kernel, 0.5 * 9.0);
  EXPECT_LE(macs_per_word_per_kernel, 9.0 + 1e-9);
}

TEST(PaperClaims, KernelLoadOncePerBatchAmortizes) {
  // §V.B: "our architecture can benefit from a large batch size because
  // we just load kernels once per batch".
  const auto conv3 = nn::alexnet().conv_layers[2];
  const auto plan = dataflow::plan_layer(conv3, dataflow::ArrayShape{});
  const dataflow::LayerCycles cycles = dataflow::layer_cycles(plan, plan.array);
  const auto seconds = [&](std::int64_t batch) {
    return static_cast<double>(cycles.total(batch)) / plan.array.clock_hz;
  };
  const double f128 = 128.0 / seconds(128);
  const double f4 = 4.0 / seconds(4);
  EXPECT_GT(f128, f4);  // larger batch -> higher fps
  const double load_share_128 =
      static_cast<double>(cycles.kernel_load) /
      static_cast<double>(cycles.total(128));
  EXPECT_LT(load_share_128, 0.02);  // ~2% at batch 128 (Fig. 9: 1.23/58.4)
  const double load_share_4 =
      static_cast<double>(cycles.kernel_load) /
      static_cast<double>(cycles.total(4));
  EXPECT_GT(load_share_4, 10.0 * load_share_128);
}

TEST(PaperClaims, MemoryPowerShareSmall) {
  // §V.C: memory hierarchy (iMemory + oMemory) ~10.55% of chip power.
  const energy::EnergyModel model = energy::EnergyModel::paper_calibrated();
  const energy::PowerBreakdown p =
      model.power(energy::paper_calibration_rates(), 700e6, 576);
  EXPECT_NEAR(p.memory_hierarchy() / p.total(), 0.1055, 0.01);
}

}  // namespace
}  // namespace chainnn
