#include "serve/router.hpp"

#include <limits>
#include <utility>

#include "common/check.hpp"

namespace chainnn::serve {

std::vector<ChipSpec> default_fleet_chips() {
  // SRAM capacities scale with chain length (the paper's §V.B sizes are
  // per-576-PE); clocks are staggered so neither the short nor the long
  // chain dominates every layer shape.
  const auto scaled = [](std::int64_t num_pes, double clock_hz) {
    ChipSpec chip;
    chip.array.num_pes = num_pes;
    chip.array.clock_hz = clock_hz;
    const mem::HierarchyConfig base;
    const auto scale = [num_pes](std::uint64_t bytes) {
      return bytes * static_cast<std::uint64_t>(num_pes) / 576;
    };
    chip.memory.imemory_bytes = scale(base.imemory_bytes);
    chip.memory.omemory_bytes = scale(base.omemory_bytes);
    chip.memory.kmemory_bytes = scale(base.kmemory_bytes);
    return chip;
  };
  ChipSpec small = scaled(288, 900e6);
  small.name = "pe288";
  ChipSpec paper = scaled(576, 700e6);
  paper.name = "pe576";
  ChipSpec large = scaled(1152, 500e6);
  large.name = "pe1152";
  return {small, paper, large};
}

std::vector<nn::ConvLayerParams> resolve_network_layers(
    const nn::NetworkModel& net, std::int64_t batch, std::int64_t in_height,
    std::int64_t in_width,
    const std::vector<chain::InterLayerOp>& inter_layer) {
  CHAINNN_CHECK_MSG(batch >= 1, "batch must be >= 1, got " << batch);
  std::vector<nn::ConvLayerParams> resolved;
  resolved.reserve(net.conv_layers.size());
  std::int64_t h = in_height;
  std::int64_t w = in_width;
  for (std::size_t i = 0; i < net.conv_layers.size(); ++i) {
    nn::ConvLayerParams layer = net.conv_layers[i];
    if (i > 0) {
      const std::int64_t emitted = net.conv_layers[i - 1].out_channels;
      CHAINNN_CHECK_MSG(layer.in_channels == emitted,
                        net.name << "/" << layer.name << ": expects "
                                 << layer.in_channels
                                 << " channels, the layer before emits "
                                 << emitted);
    }
    layer.batch = batch;
    layer.in_height = h;
    layer.in_width = w;
    layer.validate();
    h = layer.out_height();
    w = layer.out_width();
    const chain::InterLayerOp op = i < inter_layer.size()
                                       ? inter_layer[i]
                                       : chain::InterLayerOp{};
    if (op.pool) {
      h = op.pool_params.out_size(h);
      w = op.pool_params.out_size(w);
    }
    resolved.push_back(std::move(layer));
  }
  return resolved;
}

Router::Router(std::vector<ChipSpec> chips, std::shared_ptr<PlanCache> cache)
    : chips_(std::move(chips)),
      cache_(std::move(cache)),
      backlog_(chips_.size(), 0.0),
      dispatched_(chips_.size(), 0.0),
      routed_(chips_.size(), 0) {
  CHAINNN_CHECK_MSG(!chips_.empty(), "a fleet needs at least one chip");
  CHAINNN_CHECK_MSG(cache_ != nullptr, "router needs a shared PlanCache");
  for (std::size_t c = 0; c < chips_.size(); ++c)
    for (std::size_t d = c + 1; d < chips_.size(); ++d)
      CHAINNN_CHECK_MSG(chips_[c].name != chips_[d].name,
                        "two chips are named \"" << chips_[c].name << "\"");
}

std::int64_t Router::cycles_for_resolved(
    std::size_t chip, const std::vector<nn::ConvLayerParams>& layers,
    std::int64_t batch) const {
  CHAINNN_CHECK_MSG(chip < chips_.size(),
                    "chip " << chip << " out of range");
  const ChipSpec& spec = chips_[chip];
  std::int64_t total = 0;
  for (const nn::ConvLayerParams& layer : layers) {
    // Shared fetch: sizing a request stays a hash lookup per layer, not
    // a deep plan copy; the chip's array goes to the closed form
    // explicitly since the cached entry's array may differ outside the
    // key.
    const std::shared_ptr<const dataflow::ExecutionPlan> plan =
        cache_->shared_plan_for(layer, spec.array, spec.memory);
    total += dataflow::layer_cycles(*plan, spec.array).total(batch);
  }
  return total;
}

std::int64_t Router::modelled_request_cycles(
    std::size_t chip, const nn::NetworkModel& net, std::int64_t batch,
    std::int64_t in_height, std::int64_t in_width,
    const std::vector<chain::InterLayerOp>& inter_layer) const {
  return cycles_for_resolved(
      chip, resolve_network_layers(net, batch, in_height, in_width, inter_layer),
      batch);
}

double Router::modelled_request_seconds(
    std::size_t chip, const nn::NetworkModel& net, std::int64_t batch,
    std::int64_t in_height, std::int64_t in_width,
    const std::vector<chain::InterLayerOp>& inter_layer) const {
  // Sized first: it range-checks `chip` before chips_ is indexed.
  const std::int64_t cycles = modelled_request_cycles(
      chip, net, batch, in_height, in_width, inter_layer);
  return static_cast<double>(cycles) / chips_[chip].array.clock_hz;
}

Router::Estimates Router::estimate_all(
    const nn::NetworkModel& net, std::int64_t batch, std::int64_t in_height,
    std::int64_t in_width,
    const std::vector<chain::InterLayerOp>& inter_layer) const {
  // Plan lookups may plan on a cold cache, so estimation never holds the
  // router lock. The resolved geometry is chip-independent, so resolve
  // (and validate) once, not once per chip.
  const std::vector<nn::ConvLayerParams> layers =
      resolve_network_layers(net, batch, in_height, in_width, inter_layer);
  Estimates est;
  est.cycles.resize(chips_.size());
  est.seconds.resize(chips_.size());
  for (std::size_t c = 0; c < chips_.size(); ++c) {
    est.cycles[c] = cycles_for_resolved(c, layers, batch);
    est.seconds[c] =
        static_cast<double>(est.cycles[c]) / chips_[c].array.clock_hz;
  }
  return est;
}

RouteDecision Router::pick_locked(const Estimates& est) const {
  RouteDecision best;
  double best_finish = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < chips_.size(); ++c) {
    const double finish = backlog_[c] + est.seconds[c];
    if (finish < best_finish) {
      best_finish = finish;
      best.chip = c;
      best.chip_name = chips_[c].name;
      best.request_seconds = est.seconds[c];
      best.backlog_seconds = backlog_[c];
      best.request_cycles = est.cycles[c];
    }
  }
  return best;
}

RouteDecision Router::route(
    const nn::NetworkModel& net, std::int64_t batch, std::int64_t in_height,
    std::int64_t in_width,
    const std::vector<chain::InterLayerOp>& inter_layer) const {
  const Estimates est =
      estimate_all(net, batch, in_height, in_width, inter_layer);
  MutexLock lock(mu_);
  return pick_locked(est);
}

RouteDecision Router::route_and_dispatch(
    const nn::NetworkModel& net, std::int64_t batch, std::int64_t in_height,
    std::int64_t in_width,
    const std::vector<chain::InterLayerOp>& inter_layer,
    const std::optional<double>& admission_deadline_s) {
  const Estimates est =
      estimate_all(net, batch, in_height, in_width, inter_layer);
  MutexLock lock(mu_);
  RouteDecision decision = pick_locked(est);
  if (admission_deadline_s &&
      decision.finish_seconds() > *admission_deadline_s) {
    // Earliest finish already misses the deadline => so does every chip.
    // Reject without charging anything.
    decision.admitted = false;
    return decision;
  }
  backlog_[decision.chip] += decision.request_seconds;
  dispatched_[decision.chip] += decision.request_seconds;
  ++routed_[decision.chip];
  return decision;
}

void Router::dispatch(const RouteDecision& decision) {
  CHAINNN_CHECK_MSG(decision.chip < chips_.size(),
                    "chip " << decision.chip << " out of range");
  MutexLock lock(mu_);
  backlog_[decision.chip] += decision.request_seconds;
  dispatched_[decision.chip] += decision.request_seconds;
  ++routed_[decision.chip];
}

void Router::retract(const RouteDecision& decision) {
  CHAINNN_CHECK_MSG(decision.chip < chips_.size(),
                    "chip " << decision.chip << " out of range");
  MutexLock lock(mu_);
  backlog_[decision.chip] -= decision.request_seconds;
  if (backlog_[decision.chip] < 0.0) backlog_[decision.chip] = 0.0;
  dispatched_[decision.chip] -= decision.request_seconds;
  if (dispatched_[decision.chip] < 0.0) dispatched_[decision.chip] = 0.0;
  if (routed_[decision.chip] > 0) --routed_[decision.chip];
}

void Router::complete(std::size_t chip, double request_seconds) {
  CHAINNN_CHECK_MSG(chip < chips_.size(), "chip " << chip << " out of range");
  MutexLock lock(mu_);
  backlog_[chip] -= request_seconds;
  if (backlog_[chip] < 0.0) backlog_[chip] = 0.0;  // float dust
}

std::vector<double> Router::backlog_seconds() const {
  MutexLock lock(mu_);
  return backlog_;
}

std::vector<std::int64_t> Router::routed_counts() const {
  MutexLock lock(mu_);
  return routed_;
}

std::vector<double> Router::dispatched_seconds() const {
  MutexLock lock(mu_);
  return dispatched_;
}

}  // namespace chainnn::serve
