// VGG-16 profiling on Chain-NN: plans all thirteen conv layers at full
// scale and reports per-layer cycles, utilization, m-group / c-tile
// structure and traffic. Shows the c-tiling path (C = 512 > 256 kMemory
// words) and the oMemory-capped residency of the wide early layers.
//
// The binary then *executes* a channel-reduced proxy of the network
// (full-size geometry, channels divided by --exec-scale) end to end
// through NetworkRunner on the selected engine:
//
//   --exec-mode=analytical      (default) golden ofmaps + closed-form
//                               cycles/traffic; fast enough to run every
//                               invocation.
//   --exec-mode=cycle-accurate  the register-level simulator (slow).
//   --exec-mode=compare         both, asserting identical results and
//                               reporting the wall-clock speedup.
//   --exec-mode=none            skip execution (plan table only).
//
// Both engines of a compare run resolve plans through one shared
// serve::PlanCache (the second run hits on every layer — VGG's repeated
// 3x3 shapes already hit within one run).
//
//   ./vgg16_profile [--batch=4] [--pes=576] [--exec-mode=analytical]
//                   [--exec-scale=16]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>

#include "chain/network_runner.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dataflow/traffic.hpp"
#include "energy/energy_model.hpp"
#include "nn/models.hpp"
#include "serve/inference_server.hpp"
#include "serve/sweep_driver.hpp"

using namespace chainnn;

namespace {

struct ExecutedRun {
  chain::NetworkRunResult result;
  double wall_ms = 0.0;
};

ExecutedRun execute_proxy(const nn::NetworkModel& proxy,
                          const dataflow::ArrayShape& array,
                          chain::ExecMode mode,
                          const std::shared_ptr<serve::PlanCache>& cache) {
  chain::AcceleratorConfig cfg;
  cfg.array = array;
  cfg.exec_mode = mode;
  chain::ChainAccelerator acc(cfg, cache);
  const energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);

  Rng rng(7);
  Tensor<std::int16_t> input(
      Shape{1, proxy.conv_layers.front().in_channels,
            proxy.conv_layers.front().in_height,
            proxy.conv_layers.front().in_width});
  input.fill_random(rng, -64, 64);

  chain::NetworkRunOptions opts;
  opts.verify_against_golden = false;  // compare mode checks equality
  // VGG-16 pool placement (2x2/2 after blocks 1..5) so the flowing
  // activations shrink spatially the way the real network does.
  opts.inter_layer.assign(proxy.conv_layers.size(), chain::InterLayerOp{});
  for (const std::size_t after : {1u, 3u, 6u, 9u, 12u}) {
    if (after < opts.inter_layer.size()) {
      opts.inter_layer[after].pool = true;
      opts.inter_layer[after].pool_params = nn::PoolParams{2, 2, 0};
    }
  }

  ExecutedRun run;
  const auto t0 = std::chrono::steady_clock::now();
  run.result = runner.run(proxy, input, opts);
  const auto t1 = std::chrono::steady_clock::now();
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  std::string err;
  const std::map<std::string, std::string> defaults = {
      {"batch", "4"},
      {"pes", "576"},
      {"exec-mode", "analytical"},
      {"exec-scale", "16"}};
  if (!flags.parse(argc, argv, defaults, &err)) {
    std::cerr << err << "\n" << CliFlags::usage(defaults);
    return 1;
  }
  const std::int64_t batch = flags.get_int("batch");
  ExecModeSelection sel;
  if (!parse_exec_mode_selection(flags.get_string("exec-mode"),
                                 /*allow_compare=*/true,
                                 /*allow_none=*/true, &sel, &err)) {
    std::cerr << err << "\n";
    return 1;
  }

  dataflow::ArrayShape array;
  array.num_pes = flags.get_int("pes");
  const auto net = nn::vgg16();
  const energy::EnergyModel energy_model =
      energy::EnergyModel::paper_calibrated();

  TextTable t("VGG-16 on Chain-NN (" + std::to_string(array.num_pes) +
              " PEs @ 700 MHz, batch " + std::to_string(batch) + ")");
  t.set_header({"layer", "prims", "m-grp", "c-tiles", "ms/img", "util",
                "DRAM MB/b", "oMem MB/b", "mW"});
  double total_ms = 0.0;
  double total_energy_j = 0.0;
  for (const auto& layer : net.conv_layers) {
    const auto plan = dataflow::plan_layer(layer, array);
    const auto traffic = dataflow::model_traffic(plan, batch);
    // Conv time per image of the batch, kernel loads excluded.
    const dataflow::LayerCycles cycles = dataflow::layer_cycles(plan, array);
    const double ms = static_cast<double>(cycles.total(batch) -
                                          cycles.kernel_load) /
                      static_cast<double>(batch) / array.clock_hz * 1e3;
    const auto rates = energy::rates_from_plan(plan);
    const auto power = energy_model.power(rates, array.clock_hz,
                                          array.num_pes);
    t.add_row({layer.name, std::to_string(plan.primitives),
               std::to_string(plan.m_groups),
               std::to_string(plan.c_tiles), strings::fmt_fixed(ms, 2),
               strings::fmt_pct(plan.utilization_per_image(), 1),
               strings::fmt_fixed(
                   static_cast<double>(traffic.dram_total()) / 1048576.0, 1),
               strings::fmt_fixed(
                   static_cast<double>(traffic.omem_total()) / 1048576.0, 1),
               strings::fmt_fixed(power.total() * 1e3, 1)});
    total_ms += ms;
    total_energy_j += power.total() * ms / 1e3;
  }
  std::cout << t.to_ascii() << "\n"
            << "total: " << strings::fmt_fixed(total_ms, 1)
            << " ms/image ("
            << strings::fmt_fixed(1000.0 / total_ms, 1) << " fps), "
            << strings::fmt_fixed(total_energy_j * 1e3, 1)
            << " mJ/image for "
            << strings::fmt_fixed(
                   static_cast<double>(net.macs_per_image()) / 1e9, 1)
            << " GMAC\n"
            << "note: VGG's K=3 layers regroup into 64 primitives "
               "(100% PE allocation); early 224x224 layers\nare capped by "
               "oMemory partial capacity, and C=512 layers run two "
               "kMemory channel residencies\nwith a psum spill between "
               "them.\n";

  if (sel.none) return 0;

  // --- execution: channel-reduced proxy through the selected engine --------
  const std::int64_t scale =
      std::max<std::int64_t>(1, flags.get_int("exec-scale"));
  const nn::NetworkModel proxy = serve::channel_reduced_proxy(net, scale);
  const auto cache = std::make_shared<serve::PlanCache>();

  std::cout << "\nexecuting " << proxy.name
            << " (channels/" << scale << ", one image) — exec-mode "
            << sel.name() << "\n";
  if (sel.compare) {
    const ExecutedRun fast =
        execute_proxy(proxy, array, chain::ExecMode::kAnalytical, cache);
    const ExecutedRun slow =
        execute_proxy(proxy, array, chain::ExecMode::kCycleAccurate, cache);
    std::string why;
    const bool identical =
        serve::network_runs_identical(fast.result, slow.result, &why);
    const serve::PlanCacheStats cs = cache->stats();
    std::cout << "cycle-accurate: " << strings::fmt_fixed(slow.wall_ms, 1)
              << " ms wall, analytical: "
              << strings::fmt_fixed(fast.wall_ms, 1) << " ms wall => "
              << strings::fmt_fixed(slow.wall_ms / fast.wall_ms, 1)
              << "x speedup; ofmaps/cycles/traffic "
              << (identical ? "identical" : "DIFFER (" + why + ")") << "\n"
              << "plan cache: " << cs.entries << " entries, " << cs.hits
              << "/" << cs.lookups() << " hits ("
              << strings::fmt_pct(cs.hit_rate(), 1)
              << ") across both engines\n";
    return identical ? 0 : 2;
  }
  const ExecutedRun run = execute_proxy(proxy, array, sel.mode, cache);
  const serve::PlanCacheStats cs = cache->stats();
  std::cout << "wall: " << strings::fmt_fixed(run.wall_ms, 1)
            << " ms for " << run.result.layers.size()
            << " conv layers; modelled "
            << strings::fmt_fixed(run.result.total_seconds() * 1e3, 2)
            << " ms/image on-chip ("
            << strings::fmt_fixed(run.result.fps(batch), 1) << " fps at batch "
            << batch << "); plan cache " << cs.hits << "/" << cs.lookups()
            << " hits\n";
  return 0;
}
