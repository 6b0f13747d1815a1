// Ablation: per-PE MAC pipeline depth (§IV.B leaves "other pipelining
// schemes" as future work; §V.B fixes 3 stages / 1.428 ns / 700 MHz).
// Sweeps the stage count through the calibrated timing model and reports
// clock, peak throughput, AlexNet fps, power and efficiency per design
// point — quantifying why the paper's 3-stage choice sits near the knee.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "dataflow/plan.hpp"
#include "energy/energy_model.hpp"
#include "energy/timing_model.hpp"
#include "nn/models.hpp"

namespace {

using namespace chainnn;

void print_ablation() {
  const energy::TimingModel timing;
  const energy::EnergyModel energy_model =
      energy::EnergyModel::paper_calibrated();
  const auto net = nn::alexnet();

  TextTable t("Ablation — MAC pipeline depth (576 PEs)");
  t.set_header({"stages", "critical path (ns)", "clock (MHz)",
                "peak GOPS", "AlexNet fps (b128)", "power (mW)",
                "GOPS/W"});
  for (const int stages : {1, 2, 3, 4, 6, 8}) {
    dataflow::ArrayShape array;
    array.pipeline_stages = stages;
    array.clock_hz = timing.max_clock_hz(stages);

    double batch_s = 0.0;
    for (const auto& layer : net.conv_layers)
      batch_s += static_cast<double>(
                     dataflow::layer_cycles(dataflow::plan_layer(layer, array),
                                            array)
                         .total(128)) /
                 array.clock_hz;

    // Power: calibrated activity at the new clock, PE energy scaled by
    // the flop-count change.
    energy::ActivityRates rates = energy::paper_calibration_rates();
    energy::PowerBreakdown p =
        energy_model.power(rates, array.clock_hz, array.num_pes);
    p.chain_w *= timing.pe_energy_scale(stages);

    const double peak = timing.peak_ops_per_s(stages, array.num_pes);
    t.add_row({std::to_string(stages),
               strings::fmt_fixed(timing.critical_path_s(stages) * 1e9, 3),
               strings::fmt_fixed(array.clock_hz / 1e6, 0),
               strings::fmt_fixed(peak / 1e9, 1),
               strings::fmt_fixed(128.0 / batch_s, 1),
               strings::fmt_fixed(p.total() * 1e3, 1),
               strings::fmt_fixed(
                   energy::efficiency_gops_per_w(peak, p.total()), 1)});
  }
  std::cout << t.to_ascii()
            << "3 stages is the paper's design point (1.428 ns, 700 MHz); "
               "deeper pipelines buy little clock\nonce register overhead "
               "dominates and pay flop energy on every PE.\n\n";
}

void BM_TimingModel(benchmark::State& state) {
  const energy::TimingModel timing;
  for (auto _ : state)
    benchmark::DoNotOptimize(timing.max_clock_hz(3));
}
BENCHMARK(BM_TimingModel);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
