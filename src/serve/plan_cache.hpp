// PlanCache — a thread-safe, shared cache in front of dataflow::plan_layer.
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
// return identical plans.
//
// Long-running fleets see an unbounded stream of (layer, array) shapes,
// so the cache can be given a byte budget (PlanCacheOptions::max_bytes):
// entries are kept in LRU order and the least-recently-used ones are
// evicted once the approximate resident footprint exceeds the budget.
// Eviction only ever costs a re-plan on the next miss — results stay
// bit-identical (eviction is as semantics-free as the cache itself).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "dataflow/plan.hpp"

namespace chainnn::serve {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;  // entries dropped to stay under max_bytes
  std::uint64_t bytes = 0;      // approximate resident footprint

  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

struct PlanCacheOptions {
  // LRU byte budget over the approximate per-entry footprint
  // (plan_footprint_bytes). 0 = unbounded (the historical behaviour).
  // The most recently used entry is never evicted, so a budget smaller
  // than one plan degrades to a one-entry cache rather than thrashing to
  // zero.
  std::uint64_t max_bytes = 0;
};

// Approximate heap footprint of one cached plan: the struct itself plus
// its owned vectors/strings. Used for the LRU budget; deliberately an
// estimate (malloc overhead and map/list nodes are charged as a flat
// constant).
[[nodiscard]] std::uint64_t plan_footprint_bytes(
    const dataflow::ExecutionPlan& plan);

class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions options = {});
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Outcome of one plan_for() call, for callers that surface cache
  // behaviour in their own accounting (RunStats).
  struct Lookup {
    bool hit = false;
    std::uint64_t entries = 0;  // cache size after this lookup
  };

  // The plan plan_layer(layer, array, memory) would build, served from
  // the cache when the structural key matches a previous call. Throws
  // exactly when plan_layer would (the layer is validated and unmappable
  // layers are planned — and fail — outside the cache).
  [[nodiscard]] dataflow::ExecutionPlan plan_for(
      const nn::ConvLayerParams& layer, const dataflow::ArrayShape& array,
      const mem::HierarchyConfig& memory, Lookup* lookup = nullptr);

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
                  const mem::HierarchyConfig& memory,
                  Lookup* lookup = nullptr);

  [[nodiscard]] PlanCacheStats stats() const;
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] const PlanCacheOptions& options() const { return opts_; }
  void clear();  // drops entries and resets the hit/miss counters

  // The (layer, array, memory) inputs of every resident entry, MRU
  // first — everything a snapshot needs to rebuild the cache, because a
  // plan is a pure function of these inputs (re-planning them on load
  // reproduces each entry field for field). Used by durable.cpp's
  // PlanCache snapshot writer.
  struct EntryInputs {
    nn::ConvLayerParams layer;
    dataflow::ArrayShape array;
    mem::HierarchyConfig memory;
  };
  [[nodiscard]] std::vector<EntryInputs> entry_inputs() const;

 private:
  struct Entry {
    std::shared_ptr<const dataflow::ExecutionPlan> plan;
    std::uint64_t bytes = 0;
    std::list<dataflow::PlanKey>::iterator lru;  // position in lru_
  };

  void touch(Entry& entry) CHAINNN_REQUIRES(mu_);
  void evict_to_budget() CHAINNN_REQUIRES(mu_);

  PlanCacheOptions opts_;
  mutable Mutex mu_;
  std::unordered_map<dataflow::PlanKey, Entry, dataflow::PlanKeyHash> map_
      CHAINNN_GUARDED_BY(mu_);
  std::list<dataflow::PlanKey> lru_ CHAINNN_GUARDED_BY(mu_);  // front = MRU
  std::uint64_t bytes_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ CHAINNN_GUARDED_BY(mu_) = 0;
};

}  // namespace chainnn::serve
