#include "serve/sweep_driver.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace chainnn::serve {

namespace {
// Seed of the one input every point executes.
constexpr std::uint64_t kInputSeed = 7;
}  // namespace

SweepDriver::SweepDriver(nn::NetworkModel network, SweepOptions options)
    : net_(std::move(network)),
      opts_(std::move(options)),
      cache_(opts_.plan_cache ? opts_.plan_cache
                              : std::make_shared<PlanCache>()) {
  CHAINNN_CHECK_MSG(!net_.conv_layers.empty(),
                    "cannot sweep an empty network");
  CHAINNN_CHECK_MSG(opts_.batch >= 1,
                    "batch must be >= 1, got " << opts_.batch);
}

std::vector<SweepPointResult> SweepDriver::run(
    const std::vector<ChipSpec>& points) {
  // One input for the whole sweep, so every point executes the same
  // workload and the per-point figures are directly comparable.
  const nn::ConvLayerParams& first = net_.conv_layers.front();
  Tensor<std::int16_t> input(Shape{opts_.batch, first.in_channels,
                                   first.in_height, first.in_width});
  Rng rng(kInputSeed);
  input.fill_random(rng, -64, 64);

  const std::int64_t n = opts_.fidelity_sample_every_n;
  std::vector<SweepPointResult> results;
  results.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ChipSpec& point = points[i];
    ServerOptions so;
    so.accelerator.exec_mode = opts_.exec_mode;
    so.accelerator.array = point.array;
    so.accelerator.memory = point.memory;
    so.name = point.name;
    so.plan_cache = cache_;
    // The point's one request is sampled exactly when the point is.
    const bool sampled =
        n > 0 && (static_cast<std::int64_t>(i) + 1) % n == 0;
    so.fidelity_sample_every_n = sampled ? 1 : 0;
    // The point's request and its fidelity replay run on one worker.
    so.num_threads = 1;
    // Points run one after another, so the sweep's cache carry-over
    // between points is deterministic.
    InferenceServer server(so);
    InferenceResult res = server.submit(net_, input).get();

    SweepPointResult r;
    r.point = point;
    r.run = std::move(res.run);
    for (const auto& layer : r.run.layers)
      r.total_cycles += layer.run.stats.total_cycles();
    r.seconds = r.run.total_seconds();
    r.energy_j = r.run.total_energy_j();
    // The run executed the whole batch, so fps is the batch over its
    // seconds (equal to NetworkRunResult::fps(batch) by construction).
    r.fps = r.seconds == 0.0
                ? 0.0
                : static_cast<double>(opts_.batch) / r.seconds;
    r.fidelity_sampled = res.fidelity.sampled;
    r.fidelity_diverged = res.fidelity.diverged;
    // Server-side stamps: wall_ms covers the execution attempts only,
    // queue_ms the wait before pickup.
    r.wall_ms = res.wall_ms;
    r.queue_ms = res.queue_ms;
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<ChipSpec> default_sweep_points() {
  // The paper point first, then its clock variants (which share every
  // cached plan with it — the clock is outside the plan key), then the
  // other chain lengths. Ordered so any prefix of >= 2 points already
  // exercises cross-point cache hits.
  std::vector<ChipSpec> points;
  points.push_back({"pes-576", dataflow::ArrayShape{}, {}});
  for (const double mhz : {350.0, 900.0}) {
    dataflow::ArrayShape array;
    array.clock_hz = mhz * 1e6;
    points.push_back(
        {"clk-" + std::to_string(static_cast<int>(mhz)), array, {}});
  }
  for (const std::int64_t pes : {144, 288, 1152}) {
    dataflow::ArrayShape array;
    array.num_pes = pes;
    points.push_back({"pes-" + std::to_string(pes), array, {}});
  }
  return points;
}

nn::NetworkModel channel_reduced_proxy(const nn::NetworkModel& net,
                                       std::int64_t scale) {
  CHAINNN_CHECK_MSG(scale >= 1, "scale must be >= 1, got " << scale);
  CHAINNN_CHECK_MSG(!net.conv_layers.empty(),
                    "cannot reduce an empty network");
  nn::NetworkModel proxy;
  proxy.name = net.name + "/" + std::to_string(scale);
  std::int64_t prev_out = net.conv_layers.front().in_channels;
  for (nn::ConvLayerParams layer : net.conv_layers) {
    layer.in_channels = prev_out;
    layer.out_channels =
        std::max<std::int64_t>(1, layer.out_channels / scale);
    if (layer.groups > 1 && (layer.in_channels % layer.groups != 0 ||
                             layer.out_channels % layer.groups != 0))
      layer.groups = 1;
    layer.validate();
    prev_out = layer.out_channels;
    proxy.conv_layers.push_back(std::move(layer));
  }
  return proxy;
}

}  // namespace chainnn::serve
