#include "chain/network_runner.hpp"

#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/golden.hpp"

namespace chainnn::chain {

double NetworkRunResult::total_seconds() const {
  double s = 0.0;
  for (const auto& l : layers) s += l.run.seconds();
  return s;
}

double NetworkRunResult::total_energy_j() const {
  double e = 0.0;
  for (const auto& l : layers) e += l.power.total() * l.run.seconds();
  return e;
}

double NetworkRunResult::fps(std::int64_t batch) const {
  CHAINNN_CHECK(batch > 0);
  double batch_seconds = 0.0;
  for (const auto& l : layers)
    batch_seconds +=
        static_cast<double>(
            dataflow::layer_cycles(l.run.plan, l.run.plan.array)
                .total(batch)) /
        l.run.clock_hz();
  return static_cast<double>(batch) / batch_seconds;
}

bool NetworkRunResult::all_verified() const {
  for (const auto& l : layers)
    if (!l.verified) return false;
  return true;
}

namespace {

// A layer's kernel tensor shape, fixed by the model's nominal geometry
// (resolving H/W from the activations does not change it).
Shape kernel_shape(const nn::ConvLayerParams& layer) {
  return Shape{layer.out_channels, layer.channels_per_group(), layer.kernel,
               layer.kernel};
}

// The default weight initializer: one stream over the layers in order.
void draw_default_kernels(Rng& rng, Tensor<std::int16_t>& kernels) {
  kernels.fill_random(rng, -16, 16);
}

}  // namespace

NetworkRunResult NetworkRunner::run(const nn::NetworkModel& net,
                                    const Tensor<std::int16_t>& input,
                                    const NetworkRunOptions& options) {
  CHAINNN_CHECK(input.shape().rank() == 4);
  NetworkRunResult result;
  // The activations feeding the next layer: the caller's input (or the
  // checkpoint's) until a layer has run, this run's own `act` after.
  const Tensor<std::int16_t>* in = &input;
  Tensor<std::int16_t> act;
  const auto take_activations = [&in, &act]() -> Tensor<std::int16_t> {
    if (in == &act) return std::move(act);
    return *in;
  };
  Rng rng(0xC0FFEE);
  std::size_t first_layer = 0;
  if (options.resume) {
    const RunCheckpoint& cp = *options.resume;
    CHAINNN_CHECK_MSG(
        cp.next_layer >= 0 &&
            cp.next_layer <=
                static_cast<std::int64_t>(net.conv_layers.size()),
        "checkpoint resumes at layer " << cp.next_layer << " of a "
                                       << net.conv_layers.size()
                                       << "-layer network");
    CHAINNN_CHECK_MSG(
        cp.layers.size() == static_cast<std::size_t>(cp.next_layer),
        "checkpoint carries " << cp.layers.size() << " layer result(s) but "
                              << "resumes at layer " << cp.next_layer);
    CHAINNN_CHECK(cp.activations.shape().rank() == 4);
    first_layer = static_cast<std::size_t>(cp.next_layer);
    result.layers = cp.layers;
    in = &cp.activations;
    // Re-draw the completed layers' default kernels so the stream stands
    // where the uninterrupted run left it.
    if (!options.weight_init) {
      for (std::size_t i = 0; i < first_layer; ++i) {
        Tensor<std::int16_t> discarded(kernel_shape(net.conv_layers[i]));
        draw_default_kernels(rng, discarded);
      }
    }
  }

  // One accelerator, built from the effective config and cache, runs
  // every layer.
  AcceleratorConfig cfg = acc_.config();
  if (options.arena) cfg.arena = options.arena;
  const ChainAccelerator acc(
      cfg, options.plan_cache ? options.plan_cache : acc_.plan_cache());

  for (std::size_t i = first_layer; i < net.conv_layers.size(); ++i) {
    if (options.cancel_check && options.cancel_check())
      throw RunCancelled(static_cast<std::int64_t>(i));
    if (options.preempt_check && options.preempt_check()) {
      auto cp = std::make_shared<RunCheckpoint>();
      cp->next_layer = static_cast<std::int64_t>(i);
      cp->layers = std::move(result.layers);
      cp->activations = take_activations();
      throw RunPreempted(std::move(cp));
    }
    nn::ConvLayerParams layer = net.conv_layers[i];
    layer.batch = in->shape().dim(0);
    layer.in_height = in->shape().dim(2);
    layer.in_width = in->shape().dim(3);
    CHAINNN_CHECK_MSG(in->shape().dim(1) == layer.in_channels,
                      net.name << "/" << layer.name << ": expected "
                               << layer.in_channels << " channels, got "
                               << in->shape().dim(1));
    layer.validate();

    Tensor<std::int16_t> kernels(kernel_shape(layer));
    if (options.weight_init) {
      options.weight_init(static_cast<std::int64_t>(i), kernels);
    } else {
      draw_default_kernels(rng, kernels);
    }

    NetworkLayerResult lr;
    lr.layer = layer;
    lr.run = acc.run_layer(layer, *in, kernels);
    lr.verified = !options.verify_against_golden ||
                  lr.run.accumulators ==
                      nn::conv2d_fixed_accum(layer, *in, kernels);
    // The layer is written back (ofmaps, narrowing stats, golden check),
    // so its wide psums go, as on the chip, where only the 16-bit
    // write-back leaves the psum chain (§IV.B).
    lr.run.accumulators = Tensor<std::int64_t>();
    lr.power = energy_.power(energy::rates_from_plan(lr.run.plan),
                             lr.run.plan.array.clock_hz,
                             lr.run.plan.array.num_pes);

    // Pool first, then ReLU the smaller pooled tensor: ReLU is monotone,
    // so the max of ReLU'd values is the ReLU of the max.
    const InterLayerOp op = i < options.inter_layer.size()
                                ? options.inter_layer[i]
                                : InterLayerOp{};
    Tensor<std::int16_t> next =
        op.pool ? nn::max_pool(lr.run.ofmaps, op.pool_params) : lr.run.ofmaps;
    if (op.relu) nn::relu_inplace(next);
    act = std::move(next);
    in = &act;
    result.layers.push_back(std::move(lr));
  }
  result.final_activations = take_activations();
  return result;
}

}  // namespace chainnn::chain
