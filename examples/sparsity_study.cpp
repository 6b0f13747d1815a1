// Sparsity study: what zero-operand gating would save. Chain-NN (unlike
// the paper's related work Cnvlutin [13] / EIE [14]) does not exploit
// sparsity, yet ReLU feeds every layer after the first, so a large share
// of MACs carry a zero ifmap operand. Two measurements, every layer run
// on the chain through ChainAccelerator::run_layer:
//
//   1. Two 3x3 layers with ReLU between them: the zeros ReLU leaves in
//      layer 1's output, and the zero-operand MAC fraction of layer 2.
//   2. A conv3-like layer at injected activation sparsities of 0-90%.
//
// Each zero-MAC fraction is priced with the calibrated energy model as
// multiplier operand isolation — a quantified "future work" extension of
// the paper. Exits 2 if any layer's accumulators differ from the golden
// model's.
//
//   ./sparsity_study [--channels=8] [--size=14]
#include <iostream>
#include <string>

#include "chain/accelerator.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "energy/energy_model.hpp"
#include "nn/golden.hpp"
#include "nn/layers.hpp"
#include "nn/sparsity.hpp"

using namespace chainnn;

namespace {

// Share of the chain's power spent in the multiplier and psum adder,
// which gating can save on a zero operand (registers and muxes still
// toggle).
constexpr double kGateableShare = 0.55;
constexpr double kPeakOpsPerS = 2.0 * 576 * 700e6;

// `power` with every zero-operand MAC gating its share of chain power.
energy::PowerBreakdown gated(energy::PowerBreakdown power,
                             double zero_mac_fraction) {
  power.chain_w *= 1.0 - kGateableShare * zero_mac_fraction;
  return power;
}

std::string mw(double watts) { return strings::fmt_fixed(watts * 1e3, 1); }

std::string gops_per_w(double watts) {
  return strings::fmt_fixed(energy::efficiency_gops_per_w(kPeakOpsPerS, watts),
                            1);
}

nn::ConvLayerParams conv3x3(std::string name, std::int64_t in_channels,
                            std::int64_t out_channels, std::int64_t size) {
  nn::ConvLayerParams p;
  p.name = std::move(name);
  p.in_channels = in_channels;
  p.out_channels = out_channels;
  p.in_height = p.in_width = size;
  p.kernel = 3;
  p.pad = 1;
  p.validate();
  return p;
}

// Runs `layer` on the chain; clears `exact` when its accumulators differ
// from the golden model's.
chain::LayerRunResult run_checked(const chain::ChainAccelerator& acc,
                                  const nn::ConvLayerParams& layer,
                                  const Tensor<std::int16_t>& x,
                                  const Tensor<std::int16_t>& w, bool& exact) {
  chain::LayerRunResult res = acc.run_layer(layer, x, w);
  exact = exact && res.accumulators == nn::conv2d_fixed_accum(layer, x, w);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  std::string err;
  const std::map<std::string, std::string> defaults = {{"channels", "8"},
                                                       {"size", "14"}};
  if (!flags.parse(argc, argv, defaults, &err)) {
    std::cerr << err << "\n" << CliFlags::usage(defaults);
    return 1;
  }
  const std::int64_t ch = flags.get_int("channels");
  const std::int64_t hw = flags.get_int("size");

  const chain::ChainAccelerator acc{chain::AcceleratorConfig{}};
  const energy::PowerBreakdown base =
      energy::EnergyModel::paper_calibrated().power(
          energy::paper_calibration_rates(), 700e6, 576);
  bool exact = true;

  // 1. ReLU between two layers.
  const nn::ConvLayerParams l1 = conv3x3("conv1", 3, ch, hw);
  const nn::ConvLayerParams l2 = conv3x3("conv2", ch, ch, hw);
  Rng rng(2025);
  Tensor<std::int16_t> x(Shape{1, 3, hw, hw});
  x.fill_random(rng, -128, 128);
  Tensor<std::int16_t> w1(Shape{ch, 3, 3, 3});
  w1.fill_random(rng, -16, 16);
  Tensor<std::int16_t> act = run_checked(acc, l1, x, w1, exact).ofmaps;
  nn::relu_inplace(act);
  Tensor<std::int16_t> w2(Shape{ch, ch, 3, 3});
  w2.fill_random(rng, -16, 16);
  (void)run_checked(acc, l2, act, w2, exact);
  const double l2_zero = nn::count_zero_macs(l2, act, w2).zero_fraction();

  TextTable t("post-ReLU sparsity and gating opportunity");
  t.set_header({"quantity", "value"});
  t.add_row({"layer-1 output zero fraction (after ReLU)",
             strings::fmt_pct(nn::zero_element_fraction(act), 1)});
  t.add_row({"layer-2 zero-operand MAC fraction",
             strings::fmt_pct(l2_zero, 1)});
  t.add_row({"chip power without gating", mw(base.total()) + " mW"});
  t.add_row({"chip power with zero-gating (" +
                 strings::fmt_pct(kGateableShare, 0) +
                 " of PE energy gateable)",
             mw(gated(base, l2_zero).total()) + " mW"});
  t.add_row({"efficiency with gating",
             gops_per_w(gated(base, l2_zero).total()) +
                 " GOPS/W (paper baseline: 1421.0)"});
  std::cout << t.to_ascii() << "\n";

  // 2. Injected activation sparsity on a conv3-like layer.
  const nn::ConvLayerParams l3 = conv3x3("conv3-like", 16, 24, 13);
  TextTable sweep("zero-gating vs injected activation sparsity (" + l3.name +
                  ")");
  sweep.set_header({"injected sparsity", "zero-MAC fraction",
                    "chain power (mW)", "chip power (mW)", "GOPS/W"});
  for (const double sparsity : {0.0, 0.25, 0.5, 0.75, 0.9}) {
    Rng layer_rng(11);
    Tensor<std::int16_t> ifmaps(
        Shape{1, l3.in_channels, l3.in_height, l3.in_width});
    Tensor<std::int16_t> kernels(
        Shape{l3.out_channels, l3.in_channels, l3.kernel, l3.kernel});
    ifmaps.fill_random(layer_rng, 1, 127);  // nonzero before injection
    kernels.fill_random(layer_rng, -31, 31);
    nn::inject_sparsity(ifmaps, sparsity, 5);
    (void)run_checked(acc, l3, ifmaps, kernels, exact);
    const double zero = nn::count_zero_macs(l3, ifmaps, kernels).zero_fraction();
    const energy::PowerBreakdown power = gated(base, zero);
    sweep.add_row({strings::fmt_pct(sparsity, 0), strings::fmt_pct(zero, 1),
                   mw(power.chain_w), mw(power.total()),
                   gops_per_w(power.total())});
  }
  std::cout << sweep.to_ascii()
            << "At typical post-ReLU sparsity (~50%) the 1421 GOPS/W chip "
               "would approach 1.9 TOPS/W,\nthe direction the paper's "
               "related work ([13], [14]) pursues.\n\n"
            << "every layer bit-exact vs golden: " << (exact ? "YES" : "NO")
            << "\n";
  return exact ? 0 : 2;
}
