#include "energy/energy_model.hpp"

#include "common/check.hpp"
#include "dataflow/traffic.hpp"

namespace chainnn::energy {

ActivityRates paper_calibration_rates() {
  // AlexNet steady-state mix, derived from the paper's own Table IV
  // traffic totals divided by the batch runtime: batch 4 runs ~10.9 ms
  // (349.92 ms / 128 x 4) = 7.65M cycles at 700 MHz.
  //   iMemory:  26.2 MB / 2 B / 7.65M =  1.7 words/cycle (dual channels)
  //   kMemory: 116.8 MB / 2 B / 7.65M =  7.6 words/cycle (~1.3% per PE,
  //            consistent with §V.C's 1/KE activity factor per pattern)
  //   oMemory: 755.3 MB / 2 B / 7.65M = 49.3 words/cycle (one partial
  //            read+write per primitive per completion; oMemory is
  //            banked per primitive output port)
  ActivityRates r;
  // Layers 2-5 run 575-576 active PEs and dominate the time; conv1 runs
  // the strided schedule. Time-weighted average ≈ 0.985 of the chain.
  r.active_pe_fraction = 0.985;
  r.kmem_accesses_per_cycle = 7.6;
  r.imem_accesses_per_cycle = 1.71;
  r.omem_accesses_per_cycle = 49.3;
  return r;
}

PowerBreakdown paper_power_breakdown() {
  PowerBreakdown p;
  p.chain_w = 0.46671;  // Fig. 10: 1D chain arch.
  p.kmem_w = 0.04015;
  p.imem_w = 0.00391;
  p.omem_w = 0.05670;
  return p;
}

EnergyModel EnergyModel::paper_calibrated() {
  const ActivityRates r = paper_calibration_rates();
  const PowerBreakdown target = paper_power_breakdown();
  const double f = 700e6;
  const double n_pes = 576.0;

  EnergyCoefficients c;
  // Chain: split the chain power between active PEs and (lightly)
  // clock-gated idle ones; idle cost modelled at 10% of active.
  const double active = r.active_pe_fraction * n_pes;
  const double idle = n_pes - active;
  c.e_pe_active_j = target.chain_w / (f * (active + 0.1 * idle));
  c.e_pe_idle_j = 0.1 * c.e_pe_active_j;
  // Memories: 25% of each component is leakage (scales with capacity,
  // not activity), the rest dynamic, divided by the calibration rate.
  const double leak_share = 0.25;
  c.kmem_leak_w = leak_share * target.kmem_w;
  c.e_kmem_j =
      (1.0 - leak_share) * target.kmem_w / (f * r.kmem_accesses_per_cycle);
  c.imem_leak_w = leak_share * target.imem_w;
  c.e_imem_j =
      (1.0 - leak_share) * target.imem_w / (f * r.imem_accesses_per_cycle);
  c.omem_leak_w = leak_share * target.omem_w;
  c.e_omem_j =
      (1.0 - leak_share) * target.omem_w / (f * r.omem_accesses_per_cycle);
  return EnergyModel(c);
}

PowerBreakdown EnergyModel::power(const ActivityRates& rates,
                                  double clock_hz,
                                  std::int64_t num_pes) const {
  CHAINNN_CHECK(clock_hz > 0 && num_pes > 0);
  const double n = static_cast<double>(num_pes);
  const double active = rates.active_pe_fraction * n;
  const double idle = n - active;

  PowerBreakdown p;
  p.chain_w =
      clock_hz * (c_.e_pe_active_j * active + c_.e_pe_idle_j * idle);
  // Leakage scales with instantiated capacity, which tracks PE count for
  // kMemory (512B per PE) and is fixed for iMemory/oMemory.
  p.kmem_w = c_.kmem_leak_w * (n / 576.0) +
             clock_hz * c_.e_kmem_j * rates.kmem_accesses_per_cycle;
  p.imem_w = c_.imem_leak_w +
             clock_hz * c_.e_imem_j * rates.imem_accesses_per_cycle;
  p.omem_w = c_.omem_leak_w +
             clock_hz * c_.e_omem_j * rates.omem_accesses_per_cycle;
  return p;
}

double EnergyModel::energy_j(const ActivityRates& rates, double clock_hz,
                             std::int64_t num_pes,
                             std::uint64_t cycles) const {
  const PowerBreakdown p = power(rates, clock_hz, num_pes);
  return p.total() * static_cast<double>(cycles) / clock_hz;
}

ActivityRates rates_from_plan(const dataflow::ExecutionPlan& plan) {
  // Per cycle of one image's stream plus the drain (the kernel load
  // excluded).
  const dataflow::LayerCycles c = dataflow::layer_cycles(plan, plan.array);
  const auto cycles = static_cast<double>(c.stream_per_image + c.drain);
  ActivityRates r;
  r.active_pe_fraction = static_cast<double>(plan.active_pes) /
                         static_cast<double>(plan.array.num_pes);

  // The traffic both engines execute, sized by the plan's own memories.
  const dataflow::LayerTraffic t = dataflow::model_traffic(plan, 1);
  const auto wb = static_cast<double>(plan.memory.word_bytes);
  r.imem_accesses_per_cycle = static_cast<double>(t.imem_total()) / wb / cycles;
  r.kmem_accesses_per_cycle = static_cast<double>(t.kmem_total()) / wb / cycles;
  r.omem_accesses_per_cycle = static_cast<double>(t.omem_total()) / wb / cycles;
  return r;
}

double efficiency_gops_per_w(double ops_per_s, double watts) {
  return watts <= 0.0 ? 0.0 : ops_per_s / 1e9 / watts;
}

}  // namespace chainnn::energy
