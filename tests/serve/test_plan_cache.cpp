// PlanCache: hit/miss accounting, key discrimination (plan-irrelevant
// config fields share an entry, plan-relevant ones don't), equivalence
// with direct plan_layer calls, and concurrent lookups.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "serve/plan_cache.hpp"

namespace chainnn::serve {
namespace {

nn::ConvLayerParams base_layer() {
  nn::ConvLayerParams p;
  p.name = "base";
  p.batch = 2;
  p.in_channels = 8;
  p.out_channels = 6;
  p.in_height = p.in_width = 16;
  p.kernel = 3;
  p.pad = 1;
  p.validate();
  return p;
}

// Field-for-field equality of a cached plan against a fresh
// plan_layer() result (ExecutionPlan intentionally has no operator==;
// this spells out exactly what must match).
void expect_plan_identical(const dataflow::ExecutionPlan& a,
                           const dataflow::ExecutionPlan& b) {
  EXPECT_TRUE(a.layer == b.layer);
  EXPECT_EQ(a.array.num_pes, b.array.num_pes);
  EXPECT_EQ(a.array.kmem_words_per_pe, b.array.kmem_words_per_pe);
  EXPECT_EQ(a.array.clock_hz, b.array.clock_hz);
  EXPECT_EQ(a.array.pipeline_stages, b.array.pipeline_stages);
  EXPECT_EQ(a.array.dual_channel, b.array.dual_channel);
  EXPECT_EQ(a.memory.imemory_bytes, b.memory.imemory_bytes);
  EXPECT_EQ(a.memory.omemory_bytes, b.memory.omemory_bytes);
  EXPECT_EQ(a.memory.kmemory_bytes, b.memory.kmemory_bytes);
  EXPECT_EQ(a.memory.word_bytes, b.memory.word_bytes);
  EXPECT_EQ(a.taps, b.taps);
  EXPECT_EQ(a.primitives, b.primitives);
  EXPECT_EQ(a.active_pes, b.active_pes);
  EXPECT_EQ(a.m_groups, b.m_groups);
  EXPECT_EQ(a.c_tile, b.c_tile);
  EXPECT_EQ(a.c_tiles, b.c_tiles);
  EXPECT_EQ(a.row_block, b.row_block);
  EXPECT_EQ(a.all_kernels_resident, b.all_kernels_resident);
  ASSERT_EQ(a.subconvs.size(), b.subconvs.size());
  for (std::size_t i = 0; i < a.subconvs.size(); ++i) {
    EXPECT_EQ(a.subconvs[i].sub.phase_row, b.subconvs[i].sub.phase_row);
    EXPECT_EQ(a.subconvs[i].sub.phase_col, b.subconvs[i].sub.phase_col);
    EXPECT_EQ(a.subconvs[i].sub.kernel_rows, b.subconvs[i].sub.kernel_rows);
    EXPECT_EQ(a.subconvs[i].sub.kernel_cols, b.subconvs[i].sub.kernel_cols);
    EXPECT_EQ(a.subconvs[i].sub.in_rows, b.subconvs[i].sub.in_rows);
    EXPECT_EQ(a.subconvs[i].sub.in_cols, b.subconvs[i].sub.in_cols);
    EXPECT_EQ(a.subconvs[i].out_rows, b.subconvs[i].out_rows);
    EXPECT_EQ(a.subconvs[i].out_cols, b.subconvs[i].out_cols);
    EXPECT_TRUE(a.subconvs[i].strips == b.subconvs[i].strips);
  }
  // Derived timing must agree too (it reads the patched array/layer).
  EXPECT_TRUE(dataflow::layer_cycles(a, a.array) ==
              dataflow::layer_cycles(b, b.array));
  EXPECT_EQ(a.passes_per_image(), b.passes_per_image());
  EXPECT_EQ(a.windows_per_image(), b.windows_per_image());
}

TEST(PlanCache, HitMissAccounting) {
  PlanCache cache;
  const dataflow::ArrayShape array;
  const mem::HierarchyConfig memory;
  nn::ConvLayerParams a = base_layer();

  (void)cache.plan_for(a, array, memory);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  (void)cache.plan_for(a, array, memory);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  nn::ConvLayerParams b = a;
  b.kernel = 5;
  b.pad = 2;
  (void)cache.plan_for(b, array, memory);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.lookups(), 3u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);
}

// Plans `layer` on `cache` and reports whether that lookup hit, read
// from the cache's own counters.
bool lookup_hits(PlanCache& cache, const nn::ConvLayerParams& layer,
                 const dataflow::ArrayShape& array,
                 const mem::HierarchyConfig& memory,
                 dataflow::ExecutionPlan* plan = nullptr) {
  const std::uint64_t hits_before = cache.stats().hits;
  dataflow::ExecutionPlan got = cache.plan_for(layer, array, memory);
  if (plan) *plan = std::move(got);
  return cache.stats().hits == hits_before + 1;
}

TEST(PlanCache, IrrelevantFieldsShareAnEntry) {
  PlanCache cache;
  const mem::HierarchyConfig memory;
  const dataflow::ArrayShape array;
  nn::ConvLayerParams layer = base_layer();
  (void)cache.plan_for(layer, array, memory);
  ASSERT_EQ(cache.stats().entries, 1u);

  // Batch and name are carried verbatim but shape nothing.
  nn::ConvLayerParams renamed = layer;
  renamed.name = "other";
  renamed.batch = 64;
  dataflow::ExecutionPlan plan;
  EXPECT_TRUE(lookup_hits(cache, renamed, array, memory, &plan));
  EXPECT_EQ(plan.layer.name, "other");  // re-stamped, not the cached name
  EXPECT_EQ(plan.layer.batch, 64);

  // Clock, pipeline depth and channel mode are query-time-only.
  dataflow::ArrayShape clocked = array;
  clocked.clock_hz = 900e6;
  clocked.pipeline_stages = 5;
  clocked.dual_channel = false;
  EXPECT_TRUE(lookup_hits(cache, layer, clocked, memory));

  // iMemory / kMemory sizes don't shape the plan (kMemory's effect comes
  // through kmem_words_per_pe).
  mem::HierarchyConfig other_mem = memory;
  other_mem.imemory_bytes *= 2;
  other_mem.kmemory_bytes *= 2;
  EXPECT_TRUE(lookup_hits(cache, layer, array, other_mem));

  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCache, RelevantFieldsGetOwnEntries) {
  PlanCache cache;
  const mem::HierarchyConfig memory;
  const dataflow::ArrayShape array;
  const nn::ConvLayerParams layer = base_layer();
  (void)cache.plan_for(layer, array, memory);

  dataflow::ArrayShape shorter = array;
  shorter.num_pes = 144;
  EXPECT_FALSE(lookup_hits(cache, layer, shorter, memory));

  dataflow::ArrayShape small_kmem = array;
  small_kmem.kmem_words_per_pe = 4;
  EXPECT_FALSE(lookup_hits(cache, layer, small_kmem, memory));

  mem::HierarchyConfig small_omem = memory;
  small_omem.omemory_bytes = 2 * 1024;
  EXPECT_FALSE(lookup_hits(cache, layer, array, small_omem));

  nn::ConvLayerParams strided = layer;
  strided.stride = 2;
  EXPECT_FALSE(lookup_hits(cache, strided, array, memory));

  // Effective padding discriminates even through the pad_h/pad_w
  // override fields.
  nn::ConvLayerParams padded = layer;
  padded.pad = 0;
  padded.pad_h = 1;
  padded.pad_w = 1;
  // Effective (1, 1) == base_layer's pad = 1.
  EXPECT_TRUE(lookup_hits(cache, padded, array, memory));
  padded.pad_w = 0;
  EXPECT_FALSE(lookup_hits(cache, padded, array, memory));

  EXPECT_EQ(cache.stats().entries, 6u);
}

TEST(PlanCache, CachedPlanIdenticalToDirectPlan) {
  PlanCache cache;
  struct Point {
    nn::ConvLayerParams layer;
    dataflow::ArrayShape array;
    mem::HierarchyConfig memory;
  };
  std::vector<Point> points;
  {
    Point p;
    p.layer = base_layer();
    points.push_back(p);
    p.layer.stride = 4;
    p.layer.kernel = 11;
    p.layer.in_height = p.layer.in_width = 35;
    p.layer.pad = 0;
    points.push_back(p);
    Point g;
    g.layer = base_layer();
    g.layer.groups = 2;
    g.array.num_pes = 288;
    g.array.clock_hz = 350e6;
    points.push_back(g);
    Point c;
    c.layer = base_layer();
    c.layer.in_channels = 12;
    c.array.kmem_words_per_pe = 4;
    c.memory.omemory_bytes = 4 * 1024;
    points.push_back(c);
  }
  for (auto& p : points) p.layer.validate();

  // Twice over every point: the second pass is all hits and must still
  // reproduce the direct plan exactly (including batch/name/clock
  // re-stamping against a different original insertion).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "pass " << pass << " point " << i);
      nn::ConvLayerParams layer = points[i].layer;
      layer.batch = pass == 0 ? 1 : 7;
      layer.name = pass == 0 ? "first" : "second";
      const auto cached =
          cache.plan_for(layer, points[i].array, points[i].memory);
      const auto direct =
          dataflow::plan_layer(layer, points[i].array, points[i].memory);
      expect_plan_identical(cached, direct);
    }
  }
  EXPECT_EQ(cache.stats().misses, points.size());
  EXPECT_EQ(cache.stats().hits, points.size());
}

TEST(PlanCache, InvalidLayerStillThrowsOnHitPath) {
  PlanCache cache;
  const dataflow::ArrayShape array;
  const mem::HierarchyConfig memory;
  nn::ConvLayerParams layer = base_layer();
  (void)cache.plan_for(layer, array, memory);
  layer.batch = 0;  // batch is outside the key; validation must not be
  EXPECT_ANY_THROW((void)cache.plan_for(layer, array, memory));  // skipped
}

TEST(PlanCache, ConcurrentLookupsReturnIdenticalPlans) {
  PlanCache cache;
  const dataflow::ArrayShape array;
  const mem::HierarchyConfig memory;
  std::vector<nn::ConvLayerParams> layers;
  for (const std::int64_t k : {1, 3, 5}) {
    nn::ConvLayerParams p = base_layer();
    p.kernel = k;
    p.pad = k / 2;
    p.validate();
    layers.push_back(p);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::vector<dataflow::ExecutionPlan>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r)
        for (const auto& layer : layers)
          got[static_cast<std::size_t>(t)].push_back(
              cache.plan_for(layer, array, memory));
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[static_cast<std::size_t>(t)].size(),
              layers.size() * kRounds);
    for (std::size_t i = 0; i < got[static_cast<std::size_t>(t)].size();
         ++i) {
      const auto direct = dataflow::plan_layer(layers[i % layers.size()],
                                               array, memory);
      expect_plan_identical(got[static_cast<std::size_t>(t)][i], direct);
    }
  }
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, layers.size());
  EXPECT_EQ(stats.lookups(),
            static_cast<std::uint64_t>(kThreads) * kRounds * layers.size());
  // Racing misses may double-plan, but never more than one miss per
  // thread per key.
  EXPECT_GE(stats.misses, layers.size());
  EXPECT_LE(stats.misses, static_cast<std::uint64_t>(kThreads) *
                              layers.size());
}

}  // namespace
}  // namespace chainnn::serve
