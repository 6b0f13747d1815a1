#include "replay.hpp"

#include <array>

#include "energy/energy_model.hpp"
#include "net/gateway.hpp"
#include "nn/conv_kernel.hpp"
#include "nn/layers.hpp"

namespace bench {

namespace {

enum Stage { kWeights, kPlan, kKernel, kRunLayer, kPower, kReluPool, kStages };
constexpr std::array<const char*, kStages> kStageNames = {
    "weights", "plan", "kernel", "run_layer", "power", "relu_pool"};

// The default weight stream of NetworkRunner: one generator drawing every
// layer's kernels in order. The per-layer pass must draw the same values
// or it would not reproduce the served output.
constexpr std::uint64_t kWeightSeed = 0xC0FFEE;

constexpr int kReplayRepeats = 9;
constexpr int kReplayEvery = 20;
constexpr int kMaxReplays = 8;

struct ReplayResult {
  // Medians over repeats, summed over conv layers, in milliseconds.
  double runner_ms = 0.0;
  double weights_ms = 0.0;
  double plan_ms = 0.0;
  double kernel_ms = 0.0;
  double run_layer_ms = 0.0;
  double power_ms = 0.0;
  double relu_pool_ms = 0.0;
  std::int64_t macs = 0;
  std::int64_t layers = 0;
  std::int64_t fast_dispatches = 0;
  // The runner and the per-layer pass both reproduced the served digest.
  bool matches = false;
};

// Replays one request (model + concrete input) on `accelerator`'s chip.
ReplayResult replay_request(const ServedModel& model,
                            const Tensor<std::int16_t>& input,
                            const chain::AcceleratorConfig& accelerator,
                            std::uint64_t expected_digest,
                            const HostMeter& host, Trace& trace,
                            std::int64_t request, std::int64_t track) {
  const auto energy = chainnn::energy::EnergyModel::paper_calibrated();
  auto cache = std::make_shared<serve::PlanCache>();
  auto arena = std::make_shared<chainnn::TensorArena>();
  chain::AcceleratorConfig cfg = accelerator;
  cfg.exec_mode = chain::ExecMode::kAnalytical;
  cfg.arena = arena;

  const std::size_t num_layers = model.net.conv_layers.size();
  std::vector<double> runner_ms;
  // stage_ms[stage][layer] holds one sample per repeat.
  std::vector<std::vector<std::vector<double>>> stage_ms(
      kStages, std::vector<std::vector<double>>(num_layers));
  ReplayResult out;
  out.matches = true;

  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    {
      chain::ChainAccelerator acc(cfg, cache);
      chain::NetworkRunner runner(acc, energy);
      chain::NetworkRunOptions ro;
      ro.verify_against_golden = false;
      ro.inter_layer = model.inter_layer;
      ro.plan_cache = cache;
      ro.arena = arena;
      const auto t0 = Clock::now();
      const chain::NetworkRunResult run = runner.run(model.net, input, ro);
      const auto t1 = Clock::now();
      runner_ms.push_back(host.ms(t0, t1));
      trace.span("runner", t0, t1, 0, request, track);
      out.matches = out.matches && chainnn::net::run_digest(run) ==
                                       expected_digest;
    }

    chain::ChainAccelerator acc(cfg, cache);
    Rng weights_rng(kWeightSeed);
    Tensor<std::int16_t> act = input;
    const auto pass_begin = Clock::now();
    std::vector<std::array<Clock::time_point, 2 * kStages>> stamps(num_layers);
    for (std::size_t i = 0; i < num_layers; ++i) {
      nn::ConvLayerParams layer = model.net.conv_layers[i];
      layer.batch = act.shape().dim(0);
      layer.in_height = act.shape().dim(2);
      layer.in_width = act.shape().dim(3);
      auto& st = stamps[i];

      st[2 * kWeights] = Clock::now();
      Tensor<std::int16_t> kernels(chainnn::Shape{
          layer.out_channels, layer.channels_per_group(), layer.kernel,
          layer.kernel});
      kernels.fill_random(weights_rng, -16, 16);
      st[2 * kWeights + 1] = Clock::now();

      st[2 * kPlan] = Clock::now();
      (void)cache->plan_for(layer, cfg.array, cfg.memory);
      st[2 * kPlan + 1] = Clock::now();

      nn::ConvDispatch dispatch;
      st[2 * kKernel] = Clock::now();
      {
        const Tensor<std::int64_t> acc_out = nn::conv2d_fixed_accum_dispatch(
            layer, act, kernels, &dispatch,
            chainnn::ArenaAllocator<std::int64_t>(arena));
        st[2 * kKernel + 1] = Clock::now();
      }

      st[2 * kRunLayer] = Clock::now();
      const chain::LayerRunResult lr = acc.run_layer(layer, act, kernels);
      st[2 * kRunLayer + 1] = Clock::now();

      st[2 * kPower] = Clock::now();
      (void)energy.power(chainnn::energy::rates_from_plan(lr.plan),
                         lr.plan.array.clock_hz, lr.plan.array.num_pes);
      st[2 * kPower + 1] = Clock::now();

      Tensor<std::int16_t> next = lr.ofmaps;  // the runner's copy: unattributed
      const chain::InterLayerOp op = i < model.inter_layer.size()
                                         ? model.inter_layer[i]
                                         : chain::InterLayerOp{};
      st[2 * kReluPool] = Clock::now();
      if (op.relu) nn::relu_inplace(next);
      if (op.pool) next = nn::max_pool(next, op.pool_params);
      st[2 * kReluPool + 1] = Clock::now();
      act = std::move(next);

      if (rep == 0) {
        out.macs += layer.macs_total();
        ++out.layers;
        if (dispatch.fast) ++out.fast_dispatches;
      }
    }
    const auto pass_end = Clock::now();
    const std::int64_t parent =
        trace.span("layers", pass_begin, pass_end, 0, request, track);
    for (std::size_t i = 0; i < num_layers; ++i)
      for (int s = 0; s < kStages; ++s) {
        stage_ms[s][i].push_back(
            host.ms(stamps[i][2 * s], stamps[i][2 * s + 1]));
        trace.span(kStageNames[s], stamps[i][2 * s], stamps[i][2 * s + 1],
                   parent, request, track);
      }
    // The final activations carry the same digest a served run reports.
    chain::NetworkRunResult as_run;
    as_run.final_activations = std::move(act);
    out.matches = out.matches &&
                  chainnn::net::run_digest(as_run) == expected_digest;
  }

  out.runner_ms = median(runner_ms);
  double* const sums[kStages] = {&out.weights_ms, &out.plan_ms,
                                 &out.kernel_ms,  &out.run_layer_ms,
                                 &out.power_ms,   &out.relu_pool_ms};
  for (int s = 0; s < kStages; ++s)
    for (const std::vector<double>& samples : stage_ms[s])
      *sums[s] += median(samples);
  return out;
}

void report_replays(const std::vector<ReplayResult>& replays, Report& report) {
  ReplayResult sum;
  std::vector<double> runner;
  for (const ReplayResult& r : replays) {
    runner.push_back(r.runner_ms);
    sum.runner_ms += r.runner_ms;
    sum.weights_ms += r.weights_ms;
    sum.plan_ms += r.plan_ms;
    sum.kernel_ms += r.kernel_ms;
    sum.run_layer_ms += r.run_layer_ms;
    sum.power_ms += r.power_ms;
    sum.relu_pool_ms += r.relu_pool_ms;
    sum.macs += r.macs;
    sum.layers += r.layers;
    sum.fast_dispatches += r.fast_dispatches;
  }
  const auto share = [&sum](double ms) {
    return sum.runner_ms > 0.0 ? ms / sum.runner_ms : 0.0;
  };
  // run_layer's own work: requantize and traffic accounting.
  const double layer_self = sum.run_layer_ms - sum.kernel_ms - sum.plan_ms;
  const double attributed = sum.weights_ms + sum.run_layer_ms +
                            sum.power_ms + sum.relu_pool_ms;
  report.layer("chain.runner_ms_p50", median(runner));
  report.layer("chain.weights_share", share(sum.weights_ms));
  report.layer("chain.plan_share", share(sum.plan_ms));
  report.layer("chain.kernel_share", share(sum.kernel_ms));
  report.layer("chain.layer_self_share", share(layer_self));
  report.layer("chain.relu_pool_share", share(sum.relu_pool_ms));
  report.layer("chain.power_share", share(sum.power_ms));
  report.layer("chain.unattributed_share",
               replays.empty() ? 0.0 : 1.0 - share(attributed));
  report.layer("nn.kernel_gmac_per_s",
               sum.kernel_ms > 0.0
                   ? static_cast<double>(sum.macs) / (sum.kernel_ms * 1e6)
                   : 0.0);
  report.layer("nn.fast_dispatch_share",
               sum.layers > 0 ? static_cast<double>(sum.fast_dispatches) /
                                    static_cast<double>(sum.layers)
                              : 0.0);
}

}  // namespace

void replay_sample(const std::vector<ReplayCandidate>& served,
                   const RunConfig& cfg, Trace& trace, Report& report) {
  const double budget_s = cfg.seconds / 2;
  // Replay timelines sit on their own rows, after every request's row.
  constexpr std::int64_t kReplayTrackBase = 1'000'000;
  std::vector<ReplayResult> results;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;
       i < served.size() && results.size() < kMaxReplays; i += kReplayEvery) {
    if (!results.empty() && s_between(t0, Clock::now()) >= budget_s) break;
    const ReplayCandidate& c = served[i];
    const std::int64_t track =
        kReplayTrackBase + static_cast<std::int64_t>(results.size());
    results.push_back(replay_request(*c.model, *c.input, c.accelerator,
                                     c.digest, report.host(), trace,
                                     c.request, track));
    report.check("replay reproduces the served digest", results.back().matches,
                 "request " + std::to_string(c.request));
  }
  report.note("replays", chainnn::net::Json(
                             static_cast<std::int64_t>(results.size())));
  report_replays(results, report);
}

}  // namespace bench
