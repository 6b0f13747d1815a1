// Design-space exploration: sweeps chain length and clock frequency and
// reports throughput / power / efficiency / AlexNet fps for each point —
// the §III.B claim that the 1D chain "involves fewer overheads when
// scaled up to a higher parallelism or clock frequency" made quantitative.
//
// Two views:
//   1. closed-form tables straight from the plans (instant, every chain
//      length / clock / batch), as before;
//   2. an *executed* sweep (serve::SweepDriver): a channel-reduced proxy
//      of the network actually runs end to end at every design point,
//      each point a chip of its own, with a single PlanCache shared
//      across the points — per-point executed cycles / energy / fps plus
//      the cache's totals. Clock-variant points share every plan with
//      the 576-PE point (the clock is outside the plan key), so the
//      cache must end up with fewer entries (distinct keys) than layers
//      executed; the binary exits non-zero if it does not, or if any
//      fidelity sample diverges.
//
//   ./design_space [--model=alexnet] [--batch=128]
//                  [--exec-mode=analytical|cycle-accurate|none]
//                  [--exec-scale=16] [--sweep-batch=2]
//                  [--points=0 (0 = all)] [--fidelity-every=0]
#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dataflow/plan.hpp"
#include "energy/energy_model.hpp"
#include "nn/models.hpp"
#include "serve/sweep_driver.hpp"

using namespace chainnn;

namespace {

double network_batch_seconds(const nn::NetworkModel& net,
                             const dataflow::ArrayShape& array,
                             std::int64_t batch) {
  double s = 0.0;
  for (const auto& layer : net.conv_layers)
    s += static_cast<double>(
             dataflow::layer_cycles(dataflow::plan_layer(layer, array), array)
                 .total(batch)) /
         array.clock_hz;
  return s;
}

void print_closed_form_tables(const nn::NetworkModel& net,
                              std::int64_t batch,
                              const energy::EnergyModel& model) {
  // --- chain-length sweep at 700 MHz ---------------------------------------
  TextTable t1("DSE — chain length sweep @700MHz (" + net.name +
               ", batch " + std::to_string(batch) + ")");
  t1.set_header({"PEs", "peak GOPS", "fps", "power mW", "GOPS/W",
                 "fps/W"});
  for (const std::int64_t pes : {144, 288, 576, 1152, 2304}) {
    dataflow::ArrayShape array;
    array.num_pes = pes;
    const double sec = network_batch_seconds(net, array, batch);
    const double fps = static_cast<double>(batch) / sec;
    // Time-weighted activity across layers: use the largest layer's plan
    // as representative (conservative for power).
    energy::ActivityRates rates = energy::paper_calibration_rates();
    const auto power = model.power(rates, array.clock_hz, pes);
    t1.add_row({std::to_string(pes),
                strings::fmt_fixed(array.peak_ops_per_s() / 1e9, 1),
                strings::fmt_fixed(fps, 1),
                strings::fmt_fixed(power.total() * 1e3, 1),
                strings::fmt_fixed(energy::efficiency_gops_per_w(
                                       array.peak_ops_per_s(),
                                       power.total()),
                                   1),
                strings::fmt_fixed(fps / power.total(), 1)});
  }
  std::cout << t1.to_ascii() << "\n";

  // --- frequency sweep at 576 PEs -------------------------------------------
  TextTable t2("DSE — clock sweep @576 PEs");
  t2.set_header({"MHz", "peak GOPS", "fps", "power mW", "GOPS/W"});
  for (const double mhz : {200.0, 350.0, 500.0, 700.0, 900.0}) {
    dataflow::ArrayShape array;
    array.clock_hz = mhz * 1e6;
    const double sec = network_batch_seconds(net, array, batch);
    const auto power = model.power(energy::paper_calibration_rates(),
                                   array.clock_hz, 576);
    t2.add_row({strings::fmt_fixed(mhz, 0),
                strings::fmt_fixed(array.peak_ops_per_s() / 1e9, 1),
                strings::fmt_fixed(static_cast<double>(batch) / sec, 1),
                strings::fmt_fixed(power.total() * 1e3, 1),
                strings::fmt_fixed(energy::efficiency_gops_per_w(
                                       array.peak_ops_per_s(),
                                       power.total()),
                                   1)});
  }
  std::cout << t2.to_ascii() << "\n";

  // --- batch-size sweep (kernel-load amortization, §V.B) --------------------
  TextTable t3("DSE — batch size (kernel loads amortize, §V.B)");
  t3.set_header({"batch", "fps", "load share"});
  dataflow::ArrayShape array;
  for (const std::int64_t b : {1, 4, 16, 64, 128, 512}) {
    const double sec = network_batch_seconds(net, array, b);
    double load_cycles = 0.0, total_cycles = 0.0;
    for (const auto& layer : net.conv_layers) {
      const dataflow::LayerCycles cycles =
          dataflow::layer_cycles(dataflow::plan_layer(layer, array), array);
      load_cycles += static_cast<double>(cycles.kernel_load);
      total_cycles += static_cast<double>(cycles.total(b));
    }
    t3.add_row({std::to_string(b),
                strings::fmt_fixed(static_cast<double>(b) / sec, 1),
                strings::fmt_pct(load_cycles / total_cycles, 2)});
  }
  std::cout << t3.to_ascii() << "\n";
}

// Executes the proxy network at every design point, one chip per point,
// prints the per-point executed figures, and returns the exit code
// (0 unless no two points shared a plan or a fidelity sample diverged).
int run_executed_sweep(const nn::NetworkModel& net, const CliFlags& flags,
                       const ExecModeSelection& sel) {
  const std::int64_t scale =
      std::max<std::int64_t>(1, flags.get_int("exec-scale"));
  const nn::NetworkModel proxy = serve::channel_reduced_proxy(net, scale);

  serve::SweepOptions opts;
  opts.exec_mode = sel.mode;
  opts.batch = std::max<std::int64_t>(1, flags.get_int("sweep-batch"));
  opts.fidelity_sample_every_n = flags.get_int("fidelity-every");
  serve::SweepDriver driver(proxy, opts);

  std::vector<serve::ChipSpec> points = serve::default_sweep_points();
  const std::int64_t limit = flags.get_int("points");
  if (limit > 0 &&
      limit < static_cast<std::int64_t>(points.size()))
    points.resize(static_cast<std::size_t>(limit));

  const auto results = driver.run(points);

  TextTable t("DSE — executed sweep (" + proxy.name + ", batch " +
              std::to_string(opts.batch) + ", " +
              chain::exec_mode_name(sel.mode) + ", shared PlanCache)");
  t.set_header({"point", "PEs", "MHz", "Mcycles", "ms/img", "fps",
                "mJ/img"});
  std::uint64_t layers_executed = 0;
  bool fidelity_ok = true;
  for (const auto& r : results) {
    layers_executed += r.run.layers.size();
    fidelity_ok = fidelity_ok && !r.fidelity_diverged;
    const double per_image = static_cast<double>(opts.batch);
    t.add_row({r.point.name, std::to_string(r.point.array.num_pes),
               strings::fmt_fixed(r.point.array.clock_hz / 1e6, 0),
               strings::fmt_fixed(static_cast<double>(r.total_cycles) / 1e6,
                                  2),
               strings::fmt_fixed(r.seconds * 1e3 / per_image, 2),
               strings::fmt_fixed(r.fps, 1),
               strings::fmt_fixed(r.energy_j * 1e3 / per_image, 2)});
  }
  std::cout << t.to_ascii();

  const serve::PlanCacheStats cache = driver.plan_cache()->stats();
  std::cout << "plan cache: " << cache.entries << " entries, "
            << cache.hits << " hits / " << cache.lookups()
            << " lookups (" << strings::fmt_pct(cache.hit_rate(), 1)
            << ") across " << results.size() << " executed points\n";
  if (opts.fidelity_sample_every_n > 0)
    std::cout << "fidelity: sampled points cross-checked "
              << (fidelity_ok ? "clean" : "with DIVERGENCE") << "\n";

  if (!fidelity_ok) return 2;
  // One entry per distinct key: a fidelity replay looks up its primary
  // run's keys again, so only sharing between points (or between layers)
  // can leave fewer entries than layers executed.
  if (results.size() >= 2 && cache.entries >= layers_executed) {
    std::cout << "ERROR: shared plan cache never hit across "
              << results.size() << " points\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  std::string err;
  const std::map<std::string, std::string> defaults = {
      {"model", "alexnet"},        {"batch", "128"},
      {"exec-mode", "analytical"}, {"exec-scale", "16"},
      {"sweep-batch", "2"},        {"points", "0"},
      {"fidelity-every", "0"}};
  if (!flags.parse(argc, argv, defaults, &err)) {
    std::cerr << err << "\n" << CliFlags::usage(defaults);
    return 1;
  }
  ExecModeSelection sel;
  if (!parse_exec_mode_selection(flags.get_string("exec-mode"),
                                 /*allow_compare=*/false,
                                 /*allow_none=*/true, &sel, &err)) {
    std::cerr << err << "\n";
    return 1;
  }

  const auto net = nn::model_by_name(flags.get_string("model"));
  const std::int64_t batch = flags.get_int("batch");
  const energy::EnergyModel model = energy::EnergyModel::paper_calibrated();

  print_closed_form_tables(net, batch, model);

  if (sel.none) return 0;
  return run_executed_sweep(net, flags, sel);
}
