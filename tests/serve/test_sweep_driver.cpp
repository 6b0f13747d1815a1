// SweepDriver: executed design-space sweeps must share plans across
// points (the driver's cache hits), and the cache must be
// semantics-free — a shared-cache sweep produces per-point executed
// cycles / energy / ofmaps identical to a cold-cache sweep.
#include <gtest/gtest.h>

#include <vector>

#include "serve/sweep_driver.hpp"

namespace chainnn::serve {
namespace {

nn::NetworkModel tiny_net() {
  nn::NetworkModel net;
  net.name = "tiny";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 4;
  l1.in_height = l1.in_width = 10;
  l1.kernel = 3;
  l1.pad = 1;
  l1.validate();
  nn::ConvLayerParams l2;
  l2.name = "c2";
  l2.in_channels = 4;
  l2.out_channels = 3;
  l2.in_height = l2.in_width = 10;
  l2.kernel = 3;
  l2.pad = 1;
  l2.validate();
  net.conv_layers = {l1, l2};
  return net;
}

std::vector<ChipSpec> test_points() {
  std::vector<ChipSpec> points;
  points.push_back({"pes-576", dataflow::ArrayShape{}, {}});
  dataflow::ArrayShape clocked;
  clocked.clock_hz = 350e6;
  points.push_back({"clk-350", clocked, {}});
  dataflow::ArrayShape shorter;
  shorter.num_pes = 144;
  points.push_back({"pes-144", shorter, {}});
  return points;
}

// One point through `driver`, with the plan lookups it cost read from
// the driver's cache: points run one at a time, so the deltas are the
// point's own.
struct PointRun {
  SweepPointResult result;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

PointRun run_point(SweepDriver& driver, const ChipSpec& point) {
  const PlanCacheStats before = driver.plan_cache()->stats();
  std::vector<SweepPointResult> results = driver.run({point});
  EXPECT_EQ(results.size(), 1u);
  const PlanCacheStats after = driver.plan_cache()->stats();
  return {std::move(results.at(0)), after.hits - before.hits,
          after.misses - before.misses};
}

TEST(SweepDriver, SharedCacheHitsAcrossPoints) {
  SweepDriver driver(tiny_net(), {});
  std::vector<PointRun> runs;
  for (const ChipSpec& point : test_points())
    runs.push_back(run_point(driver, point));
  ASSERT_EQ(runs.size(), 3u);

  // Point 1 plans everything; the clock variant shares every plan (the
  // clock is outside the key); the shorter chain re-plans. Each point is
  // priced at submit, so pricing takes the misses and execution then
  // hits once per layer.
  EXPECT_EQ(runs[0].hits, 2u);
  EXPECT_EQ(runs[0].misses, 2u);
  EXPECT_EQ(runs[1].hits, 4u);
  EXPECT_EQ(runs[1].misses, 0u);
  EXPECT_EQ(runs[2].hits, 2u);
  EXPECT_EQ(runs[2].misses, 2u);

  const PlanCacheStats stats = driver.plan_cache()->stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.hits, 0u);

  // The executed figures respond to the design point: half the clock
  // doubles the time at identical cycles; the shorter chain schedules
  // differently (on layers this small its 16-primitive drain is actually
  // cheaper than the 64-primitive one).
  const SweepPointResult& base = runs[0].result;
  const SweepPointResult& clocked = runs[1].result;
  EXPECT_EQ(base.total_cycles, clocked.total_cycles);
  EXPECT_NEAR(clocked.seconds, 2.0 * base.seconds, 1e-12 * clocked.seconds);
  EXPECT_NE(runs[2].result.total_cycles, base.total_cycles);
  for (const PointRun& r : runs) {
    EXPECT_GT(r.result.fps, 0.0);
    EXPECT_GT(r.result.energy_j, 0.0);
  }
}

TEST(SweepDriver, CacheIsSemanticsFree) {
  // Shared-cache sweep vs per-point cold caches: identical executed
  // cycles, energy and activations at every point.
  const nn::NetworkModel net = tiny_net();
  const auto points = test_points();

  SweepOptions opts;
  opts.batch = 2;
  SweepDriver shared_driver(net, opts);
  std::uint64_t shared_hits = 0;
  std::vector<SweepPointResult> shared;
  std::vector<SweepPointResult> cold;
  for (const auto& point : points) {
    PointRun warm = run_point(shared_driver, point);
    shared_hits += warm.hits;
    shared.push_back(std::move(warm.result));

    SweepDriver cold_driver(net, opts);  // fresh cache per point
    PointRun fresh = run_point(cold_driver, point);
    EXPECT_EQ(fresh.misses, 2u);  // genuinely cold: every layer planned
    cold.push_back(std::move(fresh.result));
  }
  EXPECT_GT(shared_hits, 0u);  // and the shared one genuinely shared

  ASSERT_EQ(shared.size(), cold.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    SCOPED_TRACE(shared[i].point.name);
    EXPECT_EQ(shared[i].total_cycles, cold[i].total_cycles);
    EXPECT_DOUBLE_EQ(shared[i].seconds, cold[i].seconds);
    EXPECT_DOUBLE_EQ(shared[i].energy_j, cold[i].energy_j);
    EXPECT_DOUBLE_EQ(shared[i].fps, cold[i].fps);
    std::string why;
    EXPECT_TRUE(network_runs_identical(shared[i].run, cold[i].run, &why))
        << why;
  }
}

TEST(SweepDriver, FidelitySamplingAcrossPoints) {
  SweepOptions opts;
  opts.fidelity_sample_every_n = 1;  // every point cross-checked
  SweepDriver driver(tiny_net(), opts);
  const auto results = driver.run(test_points());
  for (const auto& r : results) {
    SCOPED_TRACE(r.point.name);
    EXPECT_TRUE(r.fidelity_sampled);
    EXPECT_FALSE(r.fidelity_diverged);
  }
}

// Point i (from 0) is cross-checked exactly when (i + 1) % n == 0.
std::vector<bool> sampled_points(const std::vector<ChipSpec>& points,
                                 std::int64_t n) {
  SweepOptions opts;
  opts.fidelity_sample_every_n = n;
  SweepDriver driver(tiny_net(), opts);
  std::vector<bool> sampled;
  for (const auto& r : driver.run(points)) {
    EXPECT_FALSE(r.fidelity_diverged) << r.point.name;
    sampled.push_back(r.fidelity_sampled);
  }
  return sampled;
}

TEST(SweepDriver, FidelitySamplingEverySecondPoint) {
  EXPECT_EQ(sampled_points(test_points(), 2),
            (std::vector<bool>{false, true, false}));
}

TEST(SweepDriver, FidelitySamplingEveryThirdDefaultPoint) {
  EXPECT_EQ(sampled_points(default_sweep_points(), 3),
            (std::vector<bool>{false, false, true, false, false, true}));
}

TEST(SweepDriver, CycleAccurateSweepMatchesAnalytical) {
  const nn::NetworkModel net = tiny_net();
  const auto points = test_points();

  SweepOptions fast;
  SweepDriver fast_driver(net, fast);
  SweepOptions slow;
  slow.exec_mode = chain::ExecMode::kCycleAccurate;
  SweepDriver slow_driver(net, slow);

  const auto fr = fast_driver.run(points);
  const auto sr = slow_driver.run(points);
  ASSERT_EQ(fr.size(), sr.size());
  for (std::size_t i = 0; i < fr.size(); ++i) {
    SCOPED_TRACE(fr[i].point.name);
    std::string why;
    EXPECT_TRUE(network_runs_identical(fr[i].run, sr[i].run, &why)) << why;
    EXPECT_EQ(fr[i].total_cycles, sr[i].total_cycles);
  }
}

TEST(SweepDriver, WallTimeExcludesQueueWait) {
  // The sweep's wall_ms must be the server-side execution-only stamp,
  // with queue wait reported separately — co-tenant traffic on a shared
  // single-threaded server must land in queue_ms, never in wall_ms.
  // Regression for sweeps mistaking scheduling delay for point cost.
  ServerOptions so;
  so.num_threads = 1;
  InferenceServer server(so);
  const nn::NetworkModel net = tiny_net();
  RequestOptions slow;
  slow.exec_mode = chain::ExecMode::kCycleAccurate;  // ~50x analytical
  RequestOptions fast;
  fast.exec_mode = chain::ExecMode::kAnalytical;
  auto a = server.submit(net, /*batch=*/4, slow);
  auto b = server.submit(net, /*batch=*/4, fast);  // queues behind `a`
  const InferenceResult ra = a.get();
  const InferenceResult rb = b.get();
  ASSERT_EQ(ra.status, RequestStatus::kOk);
  ASSERT_EQ(rb.status, RequestStatus::kOk);
  EXPECT_GT(ra.wall_ms, 0.0);
  EXPECT_GT(rb.wall_ms, 0.0);
  // `b` sat in the queue for (at least most of) `a`'s execution…
  EXPECT_GE(rb.queue_ms, 0.5 * ra.wall_ms);
  // …and none of that wait leaked into its own wall time: the analytical
  // run is far cheaper than the cycle-accurate one it queued behind.
  EXPECT_LT(rb.wall_ms, rb.queue_ms);

  // Sweep-level: points are submitted and awaited in turn, so both
  // stamps flow through per point and no point queues behind another.
  SweepDriver driver(net, {});
  for (const auto& r : driver.run(test_points())) {
    SCOPED_TRACE(r.point.name);
    EXPECT_GT(r.wall_ms, 0.0);
    EXPECT_GE(r.queue_ms, 0.0);
    EXPECT_LT(r.queue_ms, r.wall_ms + 100.0);  // no co-tenant here
  }
}

TEST(ChannelReducedProxy, PreservesGeometryAndGrouping) {
  const nn::NetworkModel alex = nn::alexnet();
  const nn::NetworkModel proxy = channel_reduced_proxy(alex, 16);
  ASSERT_EQ(proxy.conv_layers.size(), alex.conv_layers.size());
  // Input channels of the first layer survive (RGB input).
  EXPECT_EQ(proxy.conv_layers.front().in_channels,
            alex.conv_layers.front().in_channels);
  for (std::size_t i = 0; i < proxy.conv_layers.size(); ++i) {
    const auto& p = proxy.conv_layers[i];
    const auto& a = alex.conv_layers[i];
    EXPECT_EQ(p.kernel, a.kernel);
    EXPECT_EQ(p.stride, a.stride);
    EXPECT_EQ(p.in_height, a.in_height);
    EXPECT_LE(p.out_channels, std::max<std::int64_t>(1, a.out_channels));
    EXPECT_NO_THROW(p.validate());
  }
  // Scale 1 is the identity on channels.
  const nn::NetworkModel same = channel_reduced_proxy(alex, 1);
  for (std::size_t i = 0; i < same.conv_layers.size(); ++i)
    EXPECT_EQ(same.conv_layers[i].out_channels,
              alex.conv_layers[i].out_channels);
}

}  // namespace
}  // namespace chainnn::serve
