#include "serve/plan_cache.hpp"

#include <utility>

namespace chainnn::serve {

std::uint64_t plan_footprint_bytes(const dataflow::ExecutionPlan& plan) {
  // Flat constant for the map node and allocator slack; the variable
  // part is the subconv/strip vectors and the layer name.
  std::uint64_t bytes = sizeof(dataflow::ExecutionPlan) + 128;
  bytes += plan.layer.name.capacity();
  bytes += plan.subconvs.capacity() * sizeof(dataflow::SubConvPlan);
  for (const dataflow::SubConvPlan& sp : plan.subconvs)
    bytes += sp.strips.capacity() * sizeof(dataflow::Strip);
  return bytes;
}

std::shared_ptr<const dataflow::ExecutionPlan> PlanCache::shared_plan_for(
    const nn::ConvLayerParams& layer, const dataflow::ArrayShape& array,
    const mem::HierarchyConfig& memory) {
  // plan_layer validates too, but a cache hit must reject exactly the
  // same inputs a direct call would (batch is not part of the key).
  layer.validate();
  const dataflow::PlanKey key = dataflow::PlanKey::from(layer, array, memory);
  {
    MutexLock lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Plan outside the lock so concurrent misses don't serialize; a racing
  // double-compute is benign (both produce the same plan, the first
  // insert wins and the loser's copy is dropped).
  auto fresh = std::make_shared<const dataflow::ExecutionPlan>(
      dataflow::plan_layer(layer, array, memory));
  MutexLock lock(mu_);
  ++misses_;
  return map_.try_emplace(key, std::move(fresh)).first->second;
}

dataflow::ExecutionPlan PlanCache::plan_for(
    const nn::ConvLayerParams& layer, const dataflow::ArrayShape& array,
    const mem::HierarchyConfig& memory) {
  // Re-stamp the caller's exact inputs: the cached entry may have been
  // built for a different batch / name / clock (all outside the key), and
  // the derived structure is invariant to them, so the patched copy is
  // field-for-field what plan_layer(layer, array, memory) returns.
  dataflow::ExecutionPlan plan = *shared_plan_for(layer, array, memory);
  plan.layer = layer;
  plan.array = array;
  plan.memory = memory;
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lock(mu_);
  return {hits_, misses_, map_.size()};
}

}  // namespace chainnn::serve
