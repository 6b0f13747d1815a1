// PlanCache — a thread-safe, shared memo in front of dataflow::plan_layer.
//
// Chain-NN's fixed 1D-chain dataflow makes an ExecutionPlan a pure
// function of (layer geometry, array shape, memory capacities), so plans
// can be computed once and shared: across the layers of a network (VGG's
// repeated 3x3 blocks), across batch sizes, across requests of a serving
// process, and across the design points of a sweep (points differing
// only in clock frequency share every entry — see dataflow::PlanKey for
// exactly which fields discriminate).
//
// The cache is semantics-free by construction: plan_for() re-stamps the
// caller's layer / array / memory verbatim into the fetched copy, so the
// returned plan is field-for-field identical to what plan_layer would
// have built (tests/serve/test_plan_cache.cpp pins this equivalence).
// Sharing one cache between threads is safe; lookups under contention
// return identical plans. Entries are never dropped: a plan is a few
// closed forms, and the distinct (layer, array) shapes a process sees
// are the layers of the models it serves times the arrays it runs them
// on.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/thread_annotations.hpp"
#include "dataflow/plan.hpp"

namespace chainnn::serve {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;  // distinct keys planned so far

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

// Approximate heap footprint of one plan: the struct itself plus its
// owned vectors/strings, with allocator slack charged as a flat
// constant. Deliberately an estimate.
[[nodiscard]] std::uint64_t plan_footprint_bytes(
    const dataflow::ExecutionPlan& plan);

class PlanCache {
 public:
  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // The plan plan_layer(layer, array, memory) would build, served from
  // the cache when the structural key matches a previous call. Throws
  // exactly when plan_layer would (the layer is validated and unmappable
  // layers are planned — and fail — outside the cache).
  [[nodiscard]] dataflow::ExecutionPlan plan_for(
      const nn::ConvLayerParams& layer, const dataflow::ArrayShape& array,
      const mem::HierarchyConfig& memory);

  // The cached entry itself, without plan_for's re-stamping copy (an
  // ExecutionPlan owns per-subconv strip vectors, so the copy dominates
  // the cost of sizing a request on the routing hot path). The entry
  // carries the layer/array/memory of whichever call first populated it
  // — equal to the caller's in every PlanKey field but possibly not
  // outside the key (batch, name, clock, dual_channel, pipeline_stages,
  // iMemory/kMemory capacities) — so callers must read only key-derived
  // structure, or closed forms taking the caller's array explicitly
  // (dataflow::layer_cycles(plan, array)).
  [[nodiscard]] std::shared_ptr<const dataflow::ExecutionPlan>
  shared_plan_for(const nn::ConvLayerParams& layer,
                  const dataflow::ArrayShape& array,
                  const mem::HierarchyConfig& memory);

  [[nodiscard]] PlanCacheStats stats() const;

 private:
  mutable Mutex mu_;
  std::unordered_map<dataflow::PlanKey,
                     std::shared_ptr<const dataflow::ExecutionPlan>,
                     dataflow::PlanKeyHash>
      map_ CHAINNN_GUARDED_BY(mu_);
  std::uint64_t hits_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ CHAINNN_GUARDED_BY(mu_) = 0;
};

}  // namespace chainnn::serve
