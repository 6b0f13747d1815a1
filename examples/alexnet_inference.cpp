// AlexNet inference on Chain-NN: runs the five convolutional layers (the
// paper's workload, §V.B) end to end — convolutions cycle-accurately on
// the chain, ReLU/pooling on the host — and reports per-layer cycles,
// traffic, modelled power and fps.
//
// Full 227x227 AlexNet at batch 1 takes a few minutes in the register-
// level simulator; the default --scale=4 divides channel counts by 4 for
// a quick run while keeping every geometry (K=11 stride 4, groups...)
// intact. Use --scale=1 for the full network.
//
//   ./alexnet_inference [--scale=4] [--verify=true]
#include <iostream>

#include "chain/accelerator.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "energy/energy_model.hpp"
#include "nn/golden.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"

using namespace chainnn;

int main(int argc, char** argv) {
  CliFlags flags;
  std::string err;
  const std::map<std::string, std::string> defaults = {{"scale", "4"},
                                                       {"verify", "true"}};
  if (!flags.parse(argc, argv, defaults, &err)) {
    std::cerr << err << "\n" << CliFlags::usage(defaults);
    return 1;
  }
  const std::int64_t scale = flags.get_int("scale");
  const bool verify = flags.get_bool("verify");

  auto net = nn::alexnet();
  if (scale > 1) {
    for (auto& l : net.conv_layers) {
      l.in_channels = std::max(l.groups, l.in_channels / scale);
      l.out_channels = std::max(l.groups, l.out_channels / scale);
      l.in_channels -= l.in_channels % l.groups;
      l.out_channels -= l.out_channels % l.groups;
      l.validate();
    }
  }

  chain::ChainAccelerator acc{
      chain::AcceleratorConfig{}};  // the paper's 576-PE chip
  const energy::EnergyModel energy_model =
      energy::EnergyModel::paper_calibrated();
  Rng rng(1);

  // Input image and per-layer synthetic kernels.
  Tensor<std::int16_t> act(Shape{1, net.conv_layers[0].in_channels, 227,
                                 227});
  act.fill_random(rng, -64, 64);

  TextTable t("AlexNet conv layers on Chain-NN (scale 1/" +
              std::to_string(scale) + " channels)");
  t.set_header({"layer", "cycles", "ms @700MHz", "util", "GOPS",
                "power (mW)", "bit-exact"});
  double total_s = 0.0;
  std::int64_t total_load = 0;
  bool all_exact = true;

  // AlexNet host-side pipeline pieces between convs.
  const nn::PoolParams pool{3, 2, 0};

  for (std::size_t i = 0; i < net.conv_layers.size(); ++i) {
    nn::ConvLayerParams layer = net.conv_layers[i];
    layer.in_height = act.shape().dim(2);
    layer.in_width = act.shape().dim(3);
    layer.validate();

    Tensor<std::int16_t> w(Shape{layer.out_channels,
                                 layer.channels_per_group(), layer.kernel,
                                 layer.kernel});
    w.fill_random(rng, -16, 16);

    const auto res = acc.run_layer(layer, act, w);
    bool exact = true;
    if (verify)
      exact = res.accumulators == nn::conv2d_fixed_accum(layer, act, w);
    all_exact = all_exact && exact;

    const auto rates = energy::rates_from_plan(res.plan);
    const auto power = energy_model.power(rates, 700e6, 576);

    t.add_row({layer.name, std::to_string(res.stats.total_cycles()),
               strings::fmt_fixed(res.seconds() * 1e3, 3),
               strings::fmt_pct(res.utilization(), 1),
               strings::fmt_fixed(res.achieved_ops_per_s() / 1e9, 1),
               strings::fmt_fixed(power.total() * 1e3, 1),
               exact ? "yes" : "NO"});
    total_s += res.seconds();
    total_load += res.stats.kernel_load_cycles;

    // Host-side: ReLU always; pooling after conv1, conv2, conv5.
    Tensor<std::int16_t> out = res.ofmaps;
    nn::relu_inplace(out);
    if (i == 0 || i == 1 || i == 4) out = nn::max_pool(out, pool);
    act = std::move(out);
  }

  std::cout << t.to_ascii() << "\n"
            << "total conv time: " << strings::fmt_fixed(total_s * 1e3, 2)
            << " ms/image, kernel load "
            << strings::fmt_fixed(total_load / 700e6 * 1e3, 2)
            << " ms/batch\n"
            << "fps (batch 128, conv layers): "
            << strings::fmt_fixed(
                   128.0 / (128.0 * total_s + total_load / 700e6), 1)
            << "  (paper at full scale: 326.2)\n"
            << "final activation tensor: " << act.shape().to_string()
            << "\n";
  return all_exact ? 0 : 2;
}
