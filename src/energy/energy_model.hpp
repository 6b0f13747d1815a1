// Power/energy model of the Chain-NN chip.
//
// The paper measures power with Power Compiler on post-synthesis SAIF
// activity (§V.A); we substitute an activity-based analytic model:
//
//   P = P_chain + P_kmem + P_imem + P_omem
//   P_chain = e_pe_active * f * (active PEs) + e_pe_idle * f * (idle PEs)
//   P_mem   = leakage(size) + e_access * access_rate
//
// The per-event coefficients are CALIBRATED so that the paper's AlexNet
// steady-state activity mix reproduces Fig. 10's component powers
// (466.71 / 40.15 / 3.91 / 56.70 mW at 700 MHz, 576 active PEs) exactly;
// the model then extrapolates to other workloads, chain sizes and clock
// frequencies for the ablation benches. Calibration inputs and outputs
// are plain data so tests can pin them.
#pragma once

#include <cstdint>
#include <string>

#include "dataflow/plan.hpp"

namespace chainnn::energy {

// Average event rates, in events per cycle, for a workload.
struct ActivityRates {
  double active_pe_fraction = 1.0;   // of the whole chain
  double kmem_accesses_per_cycle = 0.0;
  double imem_accesses_per_cycle = 0.0;
  double omem_accesses_per_cycle = 0.0;
};

// Component power split (watts) — the Fig. 10 pie.
struct PowerBreakdown {
  double chain_w = 0.0;   // 1D chain arch. (PE datapath, channels, mux)
  double kmem_w = 0.0;
  double imem_w = 0.0;
  double omem_w = 0.0;

  [[nodiscard]] double total() const {
    return chain_w + kmem_w + imem_w + omem_w;
  }
  [[nodiscard]] double core_only() const { return chain_w + kmem_w; }
  [[nodiscard]] double memory_hierarchy() const { return imem_w + omem_w; }
};

struct EnergyCoefficients {
  // Chain datapath.
  double e_pe_active_j = 0.0;  // per active PE per cycle
  double e_pe_idle_j = 0.0;    // per idle (clock-gated) PE per cycle
  // Memories: leakage in watts, access energy in joules per 16-bit word.
  double kmem_leak_w = 0.0;
  double e_kmem_j = 0.0;
  double imem_leak_w = 0.0;
  double e_imem_j = 0.0;
  double omem_leak_w = 0.0;
  double e_omem_j = 0.0;
};

class EnergyModel {
 public:
  // Builds the model calibrated to the paper's Fig. 10 numbers (see
  // paper_calibration_rates() for the reference activity mix).
  static EnergyModel paper_calibrated();

  explicit EnergyModel(EnergyCoefficients coeffs) : c_(coeffs) {}

  [[nodiscard]] const EnergyCoefficients& coefficients() const { return c_; }

  // Power for a workload with the given activity at `clock_hz` on a chain
  // of `num_pes` PEs.
  [[nodiscard]] PowerBreakdown power(const ActivityRates& rates,
                                     double clock_hz,
                                     std::int64_t num_pes) const;

  // Energy for `cycles` at the given rates (J).
  [[nodiscard]] double energy_j(const ActivityRates& rates, double clock_hz,
                                std::int64_t num_pes,
                                std::uint64_t cycles) const;

 private:
  EnergyCoefficients c_;
};

// The activity mix used for calibration: AlexNet steady state on the
// 576-PE chain (96.9% average active PEs across conv1-5 weighted by
// time; kMemory ~1/45 reads per PE-cycle; iMemory ~2 words/cycle;
// oMemory ~2 words/cycle read+write). Derived from the analytic model;
// pinned by tests.
[[nodiscard]] ActivityRates paper_calibration_rates();

// The paper's Fig. 10 component powers (watts).
[[nodiscard]] PowerBreakdown paper_power_breakdown();

// Activity rates of a planned layer: events per streaming cycle, from the
// traffic both engines execute (model_traffic, sized by plan.memory).
[[nodiscard]] ActivityRates rates_from_plan(
    const dataflow::ExecutionPlan& plan);

// GOPS/W for a throughput and power.
[[nodiscard]] double efficiency_gops_per_w(double ops_per_s, double watts);

}  // namespace chainnn::energy
