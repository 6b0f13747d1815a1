// Microbenchmarks (google-benchmark timing): simulator speed, golden
// convolution speed, pattern generation and planning cost. These size the
// simulation substrate itself rather than reproduce a paper figure.
//
// Serve mode: `bench_micro --serve [--requests 12] [--serve-threads 2]
// [--serve-model lenet] [--serve-scale 2] [--serve-batch 2]
// [--fidelity-every 4] [--json BENCH_serve.json]` times the same
// request mix through an InferenceServer on each engine (warm plan
// cache, fidelity sampling off so no replay pollutes a timing window),
// then runs an untimed fidelity pass (1-in-N of the nominal traffic,
// every request cross-checked), and emits one machine-readable JSON
// object (requests/sec analytical vs cycle-accurate, plan-cache hit
// rate, fidelity counters) to stdout and to --json, seeding the serving
// perf trajectory in CI. The same JSON always carries a "kernel"
// section: GMAC/s of the exact scalar MAC reference vs the analytical
// engine's dispatcher over the VGG-16 channel-reduced proxy layers
// (--kernel-scale), with the saturation-free fast-path dispatch rate —
// the figure compare_bench.py gates per CHAINNN_SIMD lane.
//
// Fleet mode: `--fleet [--fleet-requests 24] [--fleet-threads 1]
// [--fleet-fidelity-every 6]` additionally drives a mixed
// (model, batch, priority, deadline) trace through the 3-chip
// heterogeneous Fleet and nests the routing metrics under "fleet" in
// the same JSON: per-chip routed counts and modelled busy seconds,
// modelled fleet rps vs the best single chip replaying the whole trace
// (deterministic closed forms — the fleet must win), wall rps, and the
// deadline-miss / cancellation counters (the trace deliberately
// includes one request whose deadline is already past at submit).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chain/accelerator.hpp"
#include "chain/scan_pattern.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "fixed/quantize.hpp"
#include "nn/conv_kernel.hpp"
#include "nn/golden.hpp"
#include "nn/models.hpp"
#include "serve/design_search.hpp"
#include "serve/durable.hpp"
#include "serve/fleet.hpp"
#include "serve/inference_server.hpp"
#include "serve/journal.hpp"
#include "serve/sweep_driver.hpp"

namespace {

using namespace chainnn;

nn::ConvLayerParams bench_layer(std::int64_t k) {
  nn::ConvLayerParams p;
  p.name = "bench";
  p.in_channels = 4;
  p.out_channels = 8;
  p.in_height = p.in_width = 32;
  p.kernel = k;
  p.validate();
  return p;
}

void BM_GoldenConv(benchmark::State& state) {
  const auto p = bench_layer(state.range(0));
  Rng rng(1);
  Tensor<std::int16_t> x(Shape{1, p.in_channels, p.in_height, p.in_width});
  Tensor<std::int16_t> w(
      Shape{p.out_channels, p.in_channels, p.kernel, p.kernel});
  x.fill_random(rng, -64, 64);
  w.fill_random(rng, -16, 16);
  for (auto _ : state)
    benchmark::DoNotOptimize(nn::conv2d_fixed_accum(p, x, w));
  state.SetItemsProcessed(state.iterations() * p.macs_per_image());
}
BENCHMARK(BM_GoldenConv)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_ChainSimulator(benchmark::State& state) {
  const auto p = bench_layer(state.range(0));
  Rng rng(2);
  Tensor<std::int16_t> x(Shape{1, p.in_channels, p.in_height, p.in_width});
  Tensor<std::int16_t> w(
      Shape{p.out_channels, p.in_channels, p.kernel, p.kernel});
  x.fill_random(rng, -64, 64);
  w.fill_random(rng, -16, 16);
  chain::AcceleratorConfig cfg;
  cfg.array.num_pes = 576;
  for (auto _ : state) {
    chain::ChainAccelerator acc(cfg);
    const auto res = acc.run_layer(p, x, w);
    benchmark::DoNotOptimize(res.stats.stream_cycles);
    state.counters["sim_cycles"] = static_cast<double>(
        res.stats.stream_cycles + res.stats.drain_cycles);
  }
  state.SetItemsProcessed(state.iterations() * p.macs_per_image());
}
BENCHMARK(BM_ChainSimulator)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_PatternGeneration(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  for (auto _ : state) {
    chain::StripPattern pat(k, k, 2 * k - 1, 64, k, true);
    benchmark::DoNotOptimize(pat.completions());
  }
}
BENCHMARK(BM_PatternGeneration)->Arg(3)->Arg(11);

void BM_PlanVgg16(benchmark::State& state) {
  const dataflow::ArrayShape array;
  const auto net = nn::vgg16();
  for (auto _ : state)
    for (const auto& layer : net.conv_layers)
      benchmark::DoNotOptimize(
          dataflow::layer_cycles(dataflow::plan_layer(layer, array), array)
              .total(1));
}
BENCHMARK(BM_PlanVgg16);

void BM_QuantizeTensor(benchmark::State& state) {
  Rng rng(3);
  Tensor<float> t(Shape{256 * 1024});
  t.fill_random(rng, -2.0, 2.0);
  for (auto _ : state) {
    auto q = fixed::quantize(t.data(), fixed::FixedFormat{8});
    benchmark::DoNotOptimize(q.raw.data());
  }
  state.SetBytesProcessed(state.iterations() * t.num_elements() * 4);
}
BENCHMARK(BM_QuantizeTensor)->Unit(benchmark::kMillisecond);

// Times `count` identical requests on one engine through `server`,
// waiting for all of them; returns requests/sec.
double time_requests(serve::InferenceServer& server,
                     const nn::NetworkModel& net, std::int64_t batch,
                     std::int64_t count, chain::ExecMode mode) {
  std::vector<std::future<serve::InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(count));
  serve::RequestOptions ro;
  ro.exec_mode = mode;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < count; ++i)
    futures.push_back(server.submit(net, batch, ro));
  for (auto& f : futures) f.get();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs == 0.0 ? 0.0 : static_cast<double>(count) / secs;
}

// MAC-kernel phase: GMAC/s of the exact scalar sticky-clamp reference
// vs the analytical engine's dispatcher (vectorized saturation-free
// fast path when the build enables CHAINNN_SIMD) over the VGG-16
// channel-reduced proxy layers, plus the fast-path dispatch rate.
// Appends `"kernel": {...}` to `json`; returns false if the dispatcher
// is not bit-identical to the scalar reference on any layer.
bool run_kernel_phase(const CliFlags& flags, std::ostringstream& json) {
  const std::int64_t scale =
      std::max<std::int64_t>(1, flags.get_int("kernel-scale"));
  const nn::NetworkModel net =
      serve::channel_reduced_proxy(nn::vgg16(), scale);
  Rng rng(11);
  double scalar_seconds = 0.0;
  double dispatch_seconds = 0.0;
  std::int64_t macs = 0;
  std::int64_t fast_dispatches = 0;
  bool identical = true;
  for (const nn::ConvLayerParams& p : net.conv_layers) {
    Tensor<std::int16_t> x(Shape{1, p.in_channels, p.in_height, p.in_width});
    Tensor<std::int16_t> w(
        Shape{p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel});
    x.fill_random(rng, -64, 64);
    w.fill_random(rng, -16, 16);

    const auto t0 = std::chrono::steady_clock::now();
    const Tensor<std::int64_t> ref = nn::conv2d_fixed_accum(p, x, w);
    const auto t1 = std::chrono::steady_clock::now();
    nn::ConvDispatch d;
    const Tensor<std::int64_t> got =
        nn::conv2d_fixed_accum_dispatch(p, x, w, &d);
    const auto t2 = std::chrono::steady_clock::now();

    scalar_seconds += std::chrono::duration<double>(t1 - t0).count();
    dispatch_seconds += std::chrono::duration<double>(t2 - t1).count();
    macs += p.macs_per_image();
    if (d.fast) ++fast_dispatches;
    identical = identical && ref == got;
  }
  const auto gmacs = [macs](double seconds) {
    return seconds == 0.0 ? 0.0 : static_cast<double>(macs) / seconds / 1e9;
  };
  const double scalar_gmacs = gmacs(scalar_seconds);
  const double dispatch_gmacs = gmacs(dispatch_seconds);
  const std::int64_t layers =
      static_cast<std::int64_t>(net.conv_layers.size());
  json << ", \"kernel\": {\"model\": \"" << net.name
       << "\", \"layers\": " << layers << ", \"macs\": " << macs
       << ", \"simd_enabled\": "
       << (nn::simd_kernel_enabled() ? "true" : "false")
       << ", \"scalar_gmacs\": " << scalar_gmacs
       << ", \"dispatch_gmacs\": " << dispatch_gmacs
       << ", \"speedup\": "
       << (scalar_gmacs == 0.0 ? 0.0 : dispatch_gmacs / scalar_gmacs)
       << ", \"fast_dispatches\": " << fast_dispatches
       << ", \"dispatch_rate\": "
       << static_cast<double>(fast_dispatches) / static_cast<double>(layers)
       << ", \"bit_identical\": " << (identical ? "true" : "false") << "}";
  return identical;
}

// Admission-control A/B: the same deadline-laden trace (a few normal
// requests plus `doomed` requests whose microscopic deadlines no chip
// can meet) replayed on two fresh fleets — admission off, then on.
// Without admission every doomed request costs a missed deadline
// (expired at pickup, or completed late); with admission each is
// rejected at submit and costs nothing. Appends `"admission": {...}`
// inside the fleet object and returns false unless admission strictly
// reduced missed deadlines and rejected exactly the doomed requests.
bool run_admission_phase(const nn::NetworkModel& net,
                         std::int64_t threads_per_chip,
                         std::ostringstream& json) {
  constexpr std::int64_t kNormal = 9;
  constexpr std::int64_t kDoomed = 3;
  const auto run_side = [&](bool admission) {
    serve::FleetOptions fo;
    fo.threads_per_chip = threads_per_chip;
    fo.preemption = true;
    serve::Fleet fleet(fo);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (std::int64_t i = 0; i < kNormal + kDoomed; ++i) {
      serve::RequestOptions ro;
      ro.priority = i % 2;
      // Doomed requests get a positive-but-unmeetable deadline: the
      // modelled chain seconds alone exceed 10 us, so admission-off can
      // only expire them at pickup or finish them late — either way a
      // missed deadline — while admission-on rejects them at submit.
      ro.deadline_ms = (i % 4 == 3) ? 1e-2 : 600e3;
      ro.admission = admission;
      futures.push_back(fleet.submit(net, /*batch=*/1 + i % 2, ro));
    }
    for (auto& f : futures) (void)f.get();
    fleet.wait_idle();
    return fleet.stats();
  };

  const serve::FleetStats without = run_side(false);
  const serve::FleetStats with = run_side(true);
  json << ", \"admission\": {\"requests\": " << (kNormal + kDoomed)
       << ", \"doomed\": " << kDoomed
       << ", \"missed_without\": " << without.missed_deadlines()
       << ", \"missed_with\": " << with.missed_deadlines()
       << ", \"rejected\": " << with.rejected
       << ", \"failed\": " << (without.failed + with.failed) << "}";
  return without.failed == 0 && with.failed == 0 &&
         with.rejected == kDoomed && without.rejected == 0 &&
         with.missed_deadlines() < without.missed_deadlines();
}

// Drives a mixed request trace through a 3-chip heterogeneous Fleet and
// appends `"fleet": {...}` to `json`. Returns false if a trace request
// failed, a fidelity sample diverged, the routed fleet does not beat
// the best single chip in modelled throughput, or the admission A/B did
// not reduce missed deadlines.
bool run_fleet_phase(const CliFlags& flags, std::ostringstream& json) {
  const std::int64_t requests =
      std::max<std::int64_t>(3, flags.get_int("fleet-requests"));
  const std::int64_t scale =
      std::max<std::int64_t>(1, flags.get_int("serve-scale"));
  const nn::NetworkModel net_a =
      serve::channel_reduced_proxy(nn::lenet_mnist(), scale);
  const nn::NetworkModel net_b =
      serve::channel_reduced_proxy(nn::cifar10_quick(), scale);

  serve::FleetOptions fo;
  fo.threads_per_chip =
      std::max<std::int64_t>(1, flags.get_int("fleet-threads"));
  fo.fidelity_sample_every_n = flags.get_int("fleet-fidelity-every");
  fo.preemption = true;
  serve::Fleet fleet(fo);
  const std::size_t num_chips = fleet.chips().size();

  // Mixed trace: two models, three batch sizes, a high-priority tier on
  // every fourth request, deadlines on every other one (generous — a
  // loaded CI runner stalled on a multi-second cycle-accurate fidelity
  // replay must not blow them, or the deterministic cancelled==1 gate
  // below turns flaky).
  std::vector<serve::FleetTraceEntry> trace;
  for (std::int64_t i = 0; i < requests; ++i) {
    serve::FleetTraceEntry e;
    e.net = (i % 3 == 2) ? &net_b : &net_a;
    e.batch = std::int64_t{1} << (i % 3);  // 1, 2, 4
    if (i % 4 == 0) e.options.priority = 1;
    if (i % 2 == 1) e.options.deadline_ms = 600e3;
    trace.push_back(e);
  }

  // The routed trace vs every chip replaying it alone (modelled,
  // deterministic — the fleet must win), plus one request whose
  // deadline is already past at submit (it must resolve Cancelled and
  // be counted, not executed; it stays outside the trace comparison).
  const serve::FleetTraceReport report = serve::run_fleet_trace(fleet, trace);
  serve::RequestOptions past_deadline;
  past_deadline.deadline_ms = -1.0;
  const serve::InferenceResult cancelled_probe =
      fleet.submit(net_a, 1, past_deadline).get();

  // Preemption burst, outside the timed trace comparison: slow tier-0
  // batch-8 requests seize every chip, and once they are mid-run a
  // tier-2 chaser lands on each — the workers must checkpoint the
  // running requests at their next layer boundary and serve the urgent
  // tier first. Counts are reported, not gated (whether a burst victim
  // is still mid-run when its chaser arrives is host timing), but
  // resumes must always balance preemptions once the fleet drains.
  {
    std::vector<std::future<serve::InferenceResult>> burst;
    serve::RequestOptions slow;  // tier 0, several layer boundaries
    for (std::size_t c = 0; c < num_chips; ++c)
      burst.push_back(fleet.submit(net_b, /*batch=*/8, slow));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    serve::RequestOptions chaser;
    chaser.priority = 2;
    for (std::size_t c = 0; c < num_chips; ++c)
      burst.push_back(fleet.submit(net_b, /*batch=*/1, chaser));
    for (auto& f : burst) (void)f.get();
  }
  fleet.wait_idle();
  const serve::FleetStats stats = fleet.stats();

  const double fleet_makespan = report.fleet_makespan_seconds();
  const double fleet_modelled_rps =
      fleet_makespan == 0.0
          ? 0.0
          : static_cast<double>(report.completed) / fleet_makespan;
  // Same numerator as fleet_modelled_rps: the single-chip denominator
  // already prices exactly the completed requests, so both rps figures
  // describe the same request set.
  const double best_single_modelled_rps =
      report.best_single_seconds() == 0.0
          ? 0.0
          : static_cast<double>(report.completed) /
                report.best_single_seconds();

  json << ", \"fleet\": {\"requests\": " << trace.size()
       << ", \"completed\": " << report.completed
       << ", \"chips\": [";
  for (std::size_t c = 0; c < num_chips; ++c) {
    if (c > 0) json << ", ";
    json << "{\"name\": \"" << fleet.chips()[c].name
         << "\", \"num_pes\": " << fleet.chips()[c].array.num_pes
         << ", \"routed\": " << stats.chips[c].routed
         << ", \"modelled_busy_seconds\": " << report.busy_seconds[c]
         << ", \"single_chip_trace_seconds\": "
         << report.single_chip_seconds[c] << "}";
  }
  json << "], \"fleet_modelled_rps\": " << fleet_modelled_rps
       << ", \"best_single_chip\": \""
       << fleet.chips()[report.best_single_chip()].name << "\""
       << ", \"best_single_modelled_rps\": " << best_single_modelled_rps
       << ", \"modelled_speedup\": " << report.modelled_speedup()
       << ", \"wall_rps\": "
       << (report.wall_seconds == 0.0
               ? 0.0
               : static_cast<double>(report.completed) / report.wall_seconds)
       << ", \"deadline_misses\": " << stats.deadline_misses
       << ", \"deadline_expired\": " << stats.deadline_expired
       << ", \"cancelled\": " << stats.cancelled
       << ", \"preemptions\": " << stats.preemptions
       << ", \"resumes\": " << stats.resumes
       << ", \"fidelity_samples\": " << stats.fidelity_samples
       << ", \"fidelity_divergences\": " << stats.fidelity_divergences
       << ", \"failed\": " << stats.failed;
  const bool admission_ok =
      run_admission_phase(net_a, fo.threads_per_chip, json);
  json << "}";

  return stats.failed == 0 && stats.fidelity_divergences == 0 &&
         stats.cancelled == 1 &&
         cancelled_probe.status == serve::RequestStatus::kCancelled &&
         report.modelled_speedup() > 1.0 && stats.resumes == stats.preemptions &&
         admission_ok;
}

// Durability A/B plus a crash drill. The same analytical trace runs
// through two fresh fleets — journal off, then journal on with batched
// fsync (the serving configuration) — and then the journal that was
// just written is cut right after its last SUBMIT record, simulating a
// crash with requests still in flight, and recovered into a third
// fleet. Appends `"durability": {...}` to `json`. Returns false when a
// request failed on either side, the recovery did not replay exactly
// the in-flight set the cut journal describes, or a replayed request
// did not complete cleanly. The journaling throughput overhead
// (journal_on_rps / journal_off_rps, same-run so runner speed cancels)
// is gated by compare_bench.py, not here.
bool run_durability_phase(const CliFlags& flags, std::ostringstream& json) {
  const std::int64_t requests =
      std::max<std::int64_t>(6, flags.get_int("durability-requests"));
  const std::int64_t scale =
      std::max<std::int64_t>(1, flags.get_int("serve-scale"));
  const nn::NetworkModel net =
      serve::channel_reduced_proxy(nn::lenet_mnist(), scale);
  const std::string journal_path =
      (std::filesystem::temp_directory_path() /
       ("chainnn_bench_durability_" + std::to_string(::getpid()) + ".jrnl"))
          .string();

  struct Side {
    double rps = 0.0;
    serve::FleetStats stats;
  };
  const auto run_side = [&](std::shared_ptr<serve::Journal> journal) {
    serve::FleetOptions fo;
    fo.threads_per_chip = 1;
    fo.preemption = true;
    fo.journal = std::move(journal);
    serve::Fleet fleet(fo);
    std::vector<std::future<serve::InferenceResult>> futures;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < requests; ++i) {
      serve::RequestOptions ro;
      if (i % 3 == 2) ro.priority = 1;
      futures.push_back(fleet.submit(net, /*batch=*/1 + i % 2, ro));
    }
    for (auto& f : futures) (void)f.get();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    fleet.wait_idle();
    Side side;
    side.rps = secs == 0.0 ? 0.0 : static_cast<double>(requests) / secs;
    side.stats = fleet.stats();
    return side;
  };

  const auto make_journal = [&journal_path] {
    serve::JournalOptions jo;
    jo.path = journal_path;
    jo.fsync_every_records = 8;
    return std::make_shared<serve::Journal>(jo);
  };

  // Warm-up pass (untimed), then best-of-2 interleaved measurements per
  // side: a short wall-clock window on a shared CI runner is noisy, and
  // the 0.9 overhead gate needs the ratio, not the absolute numbers, to
  // be stable. The journal file on disk after the loop is the one the
  // last journal-on pass wrote (the Journal ctor truncates), so the
  // reported journal counters and the crash drill both use that pass.
  std::int64_t side_failed = run_side(nullptr).stats.failed;
  Side off, on;
  for (int rep = 0; rep < 2; ++rep) {
    const Side off_pass = run_side(nullptr);
    const Side on_pass = run_side(make_journal());
    side_failed += off_pass.stats.failed + on_pass.stats.failed;
    if (off_pass.rps > off.rps) off.rps = off_pass.rps;
    on.stats = on_pass.stats;
    if (on_pass.rps > on.rps) on.rps = on_pass.rps;
  }

  // Crash drill: cut right after the last SUBMIT record — its terminal
  // record can only come later in the log, so the cut always leaves at
  // least that request in flight.
  std::string bytes;
  {
    std::ifstream in(journal_path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const serve::JournalReadResult log =
      serve::read_records(std::string_view(bytes).substr(12));
  std::size_t cut = 12, pos = 12;
  for (const serve::JournalRecord& rec : log.records) {
    pos += 12 + 1 + rec.payload.size();
    if (rec.type == serve::RecordType::kSubmit) cut = pos;
  }
  const std::string cut_path = journal_path + ".cut";
  {
    std::ofstream out(cut_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
  }
  const serve::JournalAnalysis expected = serve::analyze_journal_file(cut_path);

  serve::FleetOptions rec_opts;
  rec_opts.threads_per_chip = 1;
  rec_opts.preemption = true;
  serve::Fleet recovered(rec_opts);
  const auto r0 = std::chrono::steady_clock::now();
  serve::RecoveryReport report = recovered.recover(cut_path);
  bool replays_ok = report.replayed > 0 &&
                    report.replayed ==
                        static_cast<std::int64_t>(expected.in_flight.size());
  for (auto& [tag, future] : report.futures) {
    (void)tag;
    if (future.get().status != serve::RequestStatus::kOk) replays_ok = false;
  }
  const double recovery_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - r0)
                                 .count();
  recovered.wait_idle();
  const serve::FleetStats rec_stats = recovered.stats();

  std::error_code ec;
  std::filesystem::remove(journal_path, ec);
  std::filesystem::remove(cut_path, ec);

  const std::int64_t failed = side_failed + rec_stats.failed;
  json << ", \"durability\": {\"requests\": " << requests
       << ", \"journal_off_rps\": " << off.rps
       << ", \"journal_on_rps\": " << on.rps
       << ", \"overhead_ratio\": "
       << (off.rps == 0.0 ? 0.0 : on.rps / off.rps)
       << ", \"journal_records\": " << on.stats.journal.records_appended
       << ", \"journal_bytes\": " << on.stats.journal.bytes_appended
       << ", \"journal_fsyncs\": " << on.stats.journal.fsyncs
       << ", \"recovery_expected_in_flight\": " << expected.in_flight.size()
       << ", \"recovery_replayed\": " << report.replayed
       << ", \"recovery_resumed_from_checkpoint\": "
       << report.resumed_from_checkpoint
       << ", \"recovery_wall_ms\": " << recovery_ms
       << ", \"failed\": " << failed << "}";
  return failed == 0 && replays_ok;
}

// Design-space-search phase: runs serve::DesignSearch over the paper
// grid on the full (unscaled) model and reports exploration throughput
// plus the frontier/pruning shape. Appends `"dse": {...}` to `json`.
// Returns false when the frontier is empty, the paper's 576@700
// instantiation fell off it, or dominance pruning eliminated nothing —
// any of which means the search or the closed-form evaluator regressed.
bool run_dse_phase(const CliFlags& flags, std::ostringstream& json) {
  const nn::NetworkModel net =
      nn::model_by_name(flags.get_string("dse-model"));
  serve::DesignSearchOptions opts;
  opts.max_points = std::max<std::int64_t>(1, flags.get_int("dse-max-points"));
  serve::DesignSearch search(net, serve::DesignSpaceGrid::paper_default(),
                             opts);
  const serve::DesignSearchStats s = search.run().stats;
  json << ", \"dse\": {\"model\": \"" << net.name << "\""
       << ", \"evaluated\": " << s.evaluated
       << ", \"points_per_sec\": " << s.points_per_sec
       << ", \"infeasible\": " << s.infeasible
       << ", \"pruned\": " << s.pruned
       << ", \"pruned_fraction\": " << s.pruned_fraction()
       << ", \"frontier\": " << s.frontier << ", \"waves\": " << s.waves
       << ", \"contains_paper_point\": "
       << (s.contains_paper_point ? "true" : "false") << "}";
  return s.frontier > 0 && s.contains_paper_point && s.pruned > 0;
}

int run_serve_bench(int argc, const char* const* argv) {
  CliFlags flags;
  const std::map<std::string, std::string> defaults = {
      {"serve", "true"},         {"requests", "8"},
      {"serve-threads", "2"},    {"serve-model", "lenet"},
      {"serve-scale", "2"},      {"serve-batch", "2"},
      {"fidelity-every", "4"},   {"json", "BENCH_serve.json"},
      {"fleet", "false"},        {"fleet-requests", "24"},
      {"fleet-threads", "1"},    {"fleet-fidelity-every", "6"},
      {"kernel-scale", "8"},     {"durability-requests", "12"},
      {"dse-model", "alexnet"},  {"dse-max-points", "12000"}};
  std::string error;
  if (!flags.parse(argc, argv, defaults, &error)) {
    std::cerr << "bench_micro serve mode: " << error << "\n"
              << CliFlags::usage(defaults);
    return 1;
  }
  const std::int64_t requests = std::max<std::int64_t>(1,
                                                       flags.get_int("requests"));
  const std::int64_t batch = std::max<std::int64_t>(1,
                                                    flags.get_int("serve-batch"));
  const std::int64_t fidelity_every = flags.get_int("fidelity-every");
  const nn::NetworkModel net = serve::channel_reduced_proxy(
      nn::model_by_name(flags.get_string("serve-model")),
      std::max<std::int64_t>(1, flags.get_int("serve-scale")));

  // Timing server: fidelity sampling OFF so no cycle-accurate replay
  // lands inside the analytical timing window (and vice versa).
  auto cache = std::make_shared<serve::PlanCache>();
  serve::ServerOptions so;
  so.num_threads = std::max<std::int64_t>(1, flags.get_int("serve-threads"));
  so.fidelity_sample_every_n = 0;
  so.plan_cache = cache;
  serve::InferenceServer server(so);

  // Warm-up: one untimed request per engine, so both timed windows run
  // against a warm plan cache and steady worker threads.
  {
    serve::RequestOptions warm;
    warm.exec_mode = chain::ExecMode::kAnalytical;
    (void)server.submit(net, batch, warm).get();
    warm.exec_mode = chain::ExecMode::kCycleAccurate;
    (void)server.submit(net, batch, warm).get();
  }

  // Cache counters are reported as the delta over the timed windows
  // only, so the metric tracks serving-path caching and not warm-up or
  // fidelity-replay lookups.
  const serve::PlanCacheStats cache_before = cache->stats();
  const double analytical_rps = time_requests(
      server, net, batch, requests, chain::ExecMode::kAnalytical);
  const double cycle_rps = time_requests(
      server, net, batch, requests, chain::ExecMode::kCycleAccurate);
  const serve::PlanCacheStats cache_after = cache->stats();
  const serve::PlanCacheStats timed{cache_after.hits - cache_before.hits,
                                    cache_after.misses - cache_before.misses,
                                    cache_after.entries};

  // Fidelity pass, untimed: its own server (sampling every request,
  // 1-in-N of the nominal traffic) on the same shared cache.
  std::int64_t fidelity_samples = 0;
  std::int64_t fidelity_divergences = 0;
  if (fidelity_every > 0) {
    serve::ServerOptions fso = so;
    fso.fidelity_sample_every_n = 1;
    serve::InferenceServer fidelity_server(fso);
    const std::int64_t samples =
        std::max<std::int64_t>(1, requests / fidelity_every);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (std::int64_t i = 0; i < samples; ++i)
      futures.push_back(fidelity_server.submit(net, batch, {}));
    for (auto& f : futures) f.get();
    const serve::ServerStats fs = fidelity_server.stats();
    fidelity_samples = fs.fidelity_samples;
    fidelity_divergences = fs.fidelity_divergences;
  }

  const serve::ServerStats stats = server.stats();
  std::ostringstream json;
  json << "{\"model\": \"" << net.name << "\", \"requests_per_mode\": "
       << requests << ", \"batch\": " << batch
       << ", \"serve_threads\": " << so.num_threads
       << ", \"analytical_rps\": " << analytical_rps
       << ", \"cycle_accurate_rps\": " << cycle_rps
       << ", \"speedup\": "
       << (cycle_rps == 0.0 ? 0.0 : analytical_rps / cycle_rps)
       << ", \"cache_hits\": " << timed.hits
       << ", \"cache_misses\": " << timed.misses
       << ", \"cache_hit_rate\": " << timed.hit_rate()
       << ", \"fidelity_samples\": " << fidelity_samples
       << ", \"fidelity_divergences\": " << fidelity_divergences
       << ", \"timed_requests\": " << 2 * requests
       << ", \"failed\": " << stats.failed;
  bool fleet_ok = true;
  if (flags.get_bool("fleet")) fleet_ok = run_fleet_phase(flags, json);
  const bool kernel_ok = run_kernel_phase(flags, json);
  const bool durability_ok = run_durability_phase(flags, json);
  const bool dse_ok = run_dse_phase(flags, json);
  json << "}";
  std::cout << json.str() << "\n";

  const std::string path = flags.get_string("json");
  if (!path.empty() && path != "-") {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    out << json.str() << "\n";
  }
  // The serving bench doubles as a smoke check: every request must
  // complete, every fidelity sample must cross-check clean, the routed
  // fleet must beat the best single chip in modelled throughput, the
  // kernel dispatcher must stay bit-identical to the scalar reference,
  // the crash drill must replay exactly the journalled in-flight set,
  // and the design-space search must keep the paper point Pareto-optimal.
  return stats.failed == 0 && fidelity_divergences == 0 && fleet_ok &&
                 kernel_ok && durability_ok && dse_ok
             ? 0
             : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--serve", 0) == 0 || arg.rfind("--fleet", 0) == 0)
      return run_serve_bench(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
