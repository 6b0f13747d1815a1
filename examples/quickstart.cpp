// Quickstart: quantize a small convolution, run it on the cycle-accurate
// Chain-NN simulator, verify against the golden model, and print the
// cycle / traffic / utilization report.
//
//   ./quickstart [--pes=576] [--kernel=3] [--size=16]
#include <iostream>

#include "chain/accelerator.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fixed/quantize.hpp"
#include "nn/golden.hpp"

using namespace chainnn;

int main(int argc, char** argv) {
  CliFlags flags;
  std::string err;
  const std::map<std::string, std::string> defaults = {
      {"pes", "576"}, {"kernel", "3"}, {"size", "16"}};
  if (!flags.parse(argc, argv, defaults, &err)) {
    std::cerr << err << "\n" << CliFlags::usage(defaults);
    return 1;
  }

  // 1. Describe a convolutional layer (paper Table I parameters).
  nn::ConvLayerParams layer;
  layer.name = "quickstart";
  layer.in_channels = 3;
  layer.out_channels = 8;
  layer.in_height = layer.in_width = flags.get_int("size");
  layer.kernel = flags.get_int("kernel");
  layer.pad = layer.kernel / 2;
  layer.validate();
  std::cout << "layer: " << layer.to_string() << "\n";

  // 2. Make float data and quantize to the 16-bit fixed-point formats
  //    the datapath uses (§IV.B).
  Rng rng(2024);
  Tensor<float> x_f(Shape{1, layer.in_channels, layer.in_height,
                          layer.in_width});
  Tensor<float> w_f(Shape{layer.out_channels, layer.in_channels,
                          layer.kernel, layer.kernel});
  x_f.fill_random(rng, -1.0, 1.0);
  w_f.fill_random(rng, -0.5, 0.5);

  const fixed::FixedFormat fmt{8};  // Q7.8
  const auto xq = fixed::quantize(x_f.data(), fmt);
  const auto wq = fixed::quantize(w_f.data(), fmt);
  Tensor<std::int16_t> x(x_f.shape(), xq.raw);
  Tensor<std::int16_t> w(w_f.shape(), wq.raw);
  std::cout << "quantized to " << fmt.to_string()
            << ", max quantization error "
            << strings::fmt_fixed(xq.stats.max_abs_error, 6) << "\n";

  // 3. Build the accelerator (the paper's 576-PE instantiation by
  //    default) and run the layer cycle-accurately.
  chain::AcceleratorConfig cfg;
  cfg.array.num_pes = flags.get_int("pes");
  chain::ChainAccelerator acc(cfg);
  const chain::LayerRunResult res = acc.run_layer(layer, x, w);

  // 4. Verify bit-exactness against the golden direct convolution.
  const Tensor<std::int64_t> golden = nn::conv2d_fixed_accum(layer, x, w);
  const bool exact = res.accumulators == golden;
  std::cout << "bit-exact vs golden model: " << (exact ? "YES" : "NO")
            << "\n\n";

  // 5. Report what the hardware did.
  std::cout << "plan:           " << res.plan.to_string() << "\n"
            << "stream cycles:  " << res.stats.stream_cycles << "\n"
            << "drain cycles:   " << res.stats.drain_cycles << "\n"
            << "kernel load:    " << res.stats.kernel_load_cycles
            << " cycles (1 word/cycle)\n"
            << "windows:        " << res.stats.windows_collected << "\n"
            << "MACs:           " << res.stats.macs_performed << "\n"
            << "utilization:    "
            << strings::fmt_pct(res.utilization(), 1) << "\n"
            << "time @700MHz:   "
            << strings::fmt_fixed(res.seconds() * 1e6, 1) << " us\n"
            << "throughput:     "
            << strings::fmt_fixed(res.achieved_ops_per_s() / 1e9, 1)
            << " GOPS (peak "
            << strings::fmt_fixed(cfg.array.peak_ops_per_s() / 1e9, 1)
            << ")\n\n"
            << "traffic — DRAM "
            << strings::fmt_bytes(
                   static_cast<double>(res.traffic.dram_total()), 1)
            << ", iMemory "
            << strings::fmt_bytes(
                   static_cast<double>(res.traffic.imem_total()), 1)
            << ", kMemory "
            << strings::fmt_bytes(
                   static_cast<double>(res.traffic.kmem_total()), 1)
            << ", oMemory "
            << strings::fmt_bytes(
                   static_cast<double>(res.traffic.omem_total()), 1)
            << "\n";
  return exact ? 0 : 2;
}
