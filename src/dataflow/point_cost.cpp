#include "dataflow/point_cost.hpp"

#include <exception>

#include "common/check.hpp"

namespace chainnn::dataflow {

LayerCostModel layer_cost_model(const ExecutionPlan& plan) {
  return {layer_cycles(plan, plan.array), energy::rates_from_plan(plan)};
}

PointCost accumulate_point_cost(
    const std::vector<const LayerCostModel*>& layers, double clock_hz,
    std::int64_t num_pes, std::int64_t batch,
    const energy::EnergyModel& energy, double area_gates) {
  CHAINNN_CHECK_MSG(batch >= 1, "batch must be >= 1, got " << batch);
  CHAINNN_CHECK(clock_hz > 0 && num_pes > 0);
  PointCost cost;
  cost.area_gates = area_gates;
  for (const LayerCostModel* m : layers) {
    // The engines' accounting exactly (chain::analytical_stats reads the
    // same closed form, and the cycle-accurate simulator matches it
    // count for count).
    const std::int64_t cycles = m->cycles.total(batch);
    const double seconds = static_cast<double>(cycles) / clock_hz;
    const energy::PowerBreakdown power =
        energy.power(m->rates, clock_hz, num_pes);
    cost.total_cycles += cycles;
    cost.seconds += seconds;
    cost.energy_j += power.total() * seconds;
  }
  return cost;
}

std::uint64_t point_sram_bytes(const ArrayShape& array,
                               const mem::HierarchyConfig& memory) {
  return memory.imemory_bytes + memory.omemory_bytes +
         static_cast<std::uint64_t>(array.num_pes) *
             static_cast<std::uint64_t>(array.kmem_words_per_pe) *
             memory.word_bytes;
}

PointCost estimate_point_cost(const std::vector<nn::ConvLayerParams>& layers,
                              const ArrayShape& array,
                              const mem::HierarchyConfig& memory,
                              const PointCostOptions& options) {
  std::vector<LayerCostModel> models;
  models.reserve(layers.size());
  for (const nn::ConvLayerParams& layer : layers) {
    try {
      models.push_back(layer_cost_model(plan_layer(layer, array, memory)));
    } catch (const std::exception& e) {
      PointCost cost;
      cost.feasible = false;
      cost.infeasible_reason = layer.name + ": " + e.what();
      return cost;
    }
  }
  std::vector<const LayerCostModel*> refs;
  refs.reserve(models.size());
  for (const LayerCostModel& m : models) refs.push_back(&m);
  return accumulate_point_cost(refs, array.clock_hz, array.num_pes,
                               options.batch, options.energy,
                               options.area.total_gates(
                                   array.num_pes,
                                   point_sram_bytes(array, memory)));
}

}  // namespace chainnn::dataflow
