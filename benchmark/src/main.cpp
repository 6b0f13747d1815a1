// chainnn_bench — one run of one benchmark workload.
//
//   chainnn_bench --workload fleet-small --seed 1 --seconds 10
//                 [--trace run.trace.json] [--smoke] [--json run.json]
//                 [--workdir DIR] [--spec BENCHMARK.json]
//
// Writes the run report (see harness.hpp) to --json, or to stdout when
// --json is empty, and with --trace the run's spans as Chrome trace
// events. The metrics it reports are the ones --spec names. Exit status:
// 0 when every output check passed, 1 when one failed, 2 on a usage
// error or a run that could not complete.
#include <malloc.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "common/cli.hpp"
#include "common/work_pool.hpp"
#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  // One malloc arena for every thread. With glibc's default of one per
  // thread, which arenas the serving threads happen to share moves the
  // peak RSS of identical runs by 10-20%; with one it repeats within a
  // few percent. Set, like the CPU, before any thread starts.
  mallopt(M_ARENA_MAX, 1);
  const int cpu = pin_to_one_cpu();
  // The shared pool's threads start here, on the pinned CPU, whichever
  // workload first uses the pool.
  (void)chainnn::common::WorkPool::shared();
  const std::map<std::string, std::string> defaults = {
      {"workload", ""}, {"seed", "1"},  {"seconds", "10"}, {"trace", ""},
      {"smoke", "false"}, {"json", ""}, {"workdir", "."},
      {"spec", "BENCHMARK.json"}};
  chainnn::CliFlags flags;
  std::string error;
  if (!flags.parse(argc, argv, defaults, &error)) {
    std::cerr << "chainnn_bench: " << error << "\n"
              << chainnn::CliFlags::usage(defaults);
    return 2;
  }
  const std::map<std::string, void (*)(const RunConfig&, Report&, Trace&)>
      workloads = {{"fleet-small", run_fleet_small},
                   {"engine-heavy", run_engine_heavy},
                   {"gateway-journal", run_gateway_journal},
                   {"dse-alexnet", run_dse_alexnet}};

  RunConfig cfg;
  cfg.workload = flags.get_string("workload");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.smoke = flags.get_bool("smoke");
  cfg.seconds = cfg.smoke ? 1.0 : flags.get_double("seconds");
  cfg.trace_path = flags.get_string("trace");
  cfg.workdir = flags.get_string("workdir");
  const auto workload = workloads.find(cfg.workload);
  if (workload == workloads.end() || cfg.seconds <= 0.0 ||
      flags.get_int("seed") < 0) {
    std::cerr << "chainnn_bench: need --workload one of fleet-small, "
                 "engine-heavy, gateway-journal, dse-alexnet, a seed >= 0 "
                 "and --seconds > 0\n";
    return 2;
  }

  MetricTable table;
  try {
    table = read_metric_table(flags.get_string("spec"));
  } catch (const std::exception& e) {
    std::cerr << "chainnn_bench: " << e.what() << "\n";
    return 2;
  }
  const HostMeter host;
  Report report(std::move(table), host);
  if (cpu < 0)
    report.warn("could not pin the run to one CPU: the reference loop may "
                "run on another core than the program it scales");
  Trace trace(cfg.traced());
  std::string json;
  try {
    std::filesystem::create_directories(cfg.workdir);
    workload->second(cfg, report, trace);
    report.note("cpu", chainnn::net::Json(static_cast<std::int64_t>(cpu)));
    report.note("reference_loop_ms_p50", chainnn::net::Json(host.median_loop_ms()));
    report.note("reference_loop_samples", chainnn::net::Json(host.samples()));
    json = report.finish(cfg);
  } catch (const std::exception& e) {
    std::cerr << "chainnn_bench " << cfg.workload << ": " << e.what() << "\n";
    return 2;
  }
  if (cfg.traced() && !trace.write(cfg.trace_path)) {
    std::cerr << "chainnn_bench: cannot write " << cfg.trace_path << "\n";
    return 2;
  }
  const std::string path = flags.get_string("json");
  if (path.empty()) {
    std::cout << json << "\n";
  } else {
    std::ofstream out(path);
    out << json << "\n";
    if (!out) {
      std::cerr << "chainnn_bench: cannot write " << path << "\n";
      return 2;
    }
  }
  return report.correct() ? 0 : 1;
}
