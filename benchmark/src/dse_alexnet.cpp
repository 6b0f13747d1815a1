// dse-alexnet: the closed-form cost model (dataflow::estimate_point_cost
// and the per-layer models DesignSearch accumulates) plus the shared
// WorkPool, with no tensors involved. A full-grid search has one fixed
// answer, so every repeat must find the same frontier.
//
// The timed searches run on one worker, as the benchmark runs on one CPU.
// One search per run still goes through the shared WorkPool and must
// find the same frontier.
#include <algorithm>
#include <stdexcept>

#include "dataflow/point_cost.hpp"
#include "serve/design_search.hpp"
#include "serve/journal.hpp"
#include "serve/router.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using chainnn::net::Json;

// AlexNet at 700 MHz on the 576-PE chip, as the paper reports it.
constexpr double kPaperReportedFps = 326.2;
constexpr std::int64_t kPaperGridPoints = 215'040;
constexpr int kPointCostSamples = 1000;

enum Phase { kWarm, kMeasured, kPooled };
constexpr std::int64_t kSerial = 1;
constexpr std::int64_t kSharedPool = 0;

serve::DesignSpaceGrid grid_for(const RunConfig& cfg) {
  serve::DesignSpaceGrid g = serve::DesignSpaceGrid::paper_default();
  if (cfg.smoke) {
    g.num_pes = {288, 576, 1152};
    g.clock_hz = {600e6, 700e6, 800e6};
  }
  return g;
}

struct Search {
  Clock::time_point begin, end;
  int phase = kWarm;
  serve::DesignSearchStats stats;
  std::uint64_t frontier_hash = 0;
  double paper_fps = 0.0;  // 0 when the paper point is off the frontier
};

Search search_once(const ServedModel& alexnet,
                   const serve::DesignSpaceGrid& grid, std::int64_t workers,
                   int phase) {
  serve::DesignSearchOptions opts;
  opts.max_points = 0;  // the whole grid
  opts.num_workers = workers;
  opts.inter_layer = alexnet.inter_layer;
  Search s;
  s.phase = phase;
  s.begin = Clock::now();
  serve::DesignSearch search(alexnet.net, grid, opts);
  const serve::DesignSearchResult result = search.run();
  s.end = Clock::now();
  s.stats = result.stats;
  std::string key;
  for (const serve::EvaluatedDesignPoint& p : result.frontier) {
    key += p.label;
    key += ':' + std::to_string(p.cost.total_cycles) + ';';
    const bool all_dual = std::find(p.layer_dual.begin(), p.layer_dual.end(),
                                    0) == p.layer_dual.end();
    if (p.array.num_pes == 576 && p.array.clock_hz == 700e6 &&
        p.array.kmem_words_per_pe == 256 &&
        p.memory.omemory_bytes == 25 * 1024 && all_dual)
      s.paper_fps = 1.0 / p.cost.seconds;
  }
  s.frontier_hash = serve::fnv1a64(key);
  return s;
}

// Single-thread estimate_point_cost timings over seeded grid points.
std::vector<double> point_cost_sample(const ServedModel& alexnet,
                                      const serve::DesignSpaceGrid& grid,
                                      Rng& rng) {
  const nn::ConvLayerParams& first = alexnet.net.conv_layers.front();
  const std::vector<nn::ConvLayerParams> layers = serve::resolve_network_layers(
      alexnet.net, 1, first.in_height, first.in_width, alexnet.inter_layer);
  const auto pick = [&rng](const auto& axis) {
    return axis[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(axis.size()) - 1))];
  };
  std::vector<double> us;
  for (int i = 0; i < kPointCostSamples; ++i) {
    chainnn::dataflow::ArrayShape array;
    array.num_pes = pick(grid.num_pes);
    array.clock_hz = pick(grid.clock_hz);
    array.kmem_words_per_pe = pick(grid.kmem_words_per_pe);
    array.dual_channel = rng.uniform(0.0, 1.0) < 0.5;
    chainnn::mem::HierarchyConfig memory;
    memory.omemory_bytes = pick(grid.omemory_bytes);
    memory.kmemory_bytes = static_cast<std::uint64_t>(array.num_pes) *
                           static_cast<std::uint64_t>(array.kmem_words_per_pe) *
                           memory.word_bytes;
    const auto t0 = Clock::now();
    (void)chainnn::dataflow::estimate_point_cost(layers, array, memory);
    us.push_back(us_between(t0, Clock::now()));
  }
  return us;
}

struct State {
  ServedModel alexnet;
  serve::DesignSpaceGrid grid;
  Search cold;
};

}  // namespace

void run_dse_alexnet(const RunConfig& cfg, Report& report, Trace& trace) {
  const std::unique_ptr<State> st = timed_setups<State>(
      cfg, report,
      [&cfg] {
        auto s = std::make_unique<State>();
        s->alexnet = served_alexnet(1);
        s->grid = grid_for(cfg);
        s->cold = search_once(s->alexnet, s->grid, kSerial, kWarm);
        return s;
      });

  std::vector<Search> searches = {st->cold};
  const auto warm_end = after_ms(Clock::now(), 1e3 * cfg.warmup_s());
  while (Clock::now() < warm_end)
    searches.push_back(search_once(st->alexnet, st->grid, kSerial, kWarm));
  const Windows windows{Clock::now(), cfg.seconds / kWindows};
  while (Clock::now() < windows.end())
    searches.push_back(search_once(st->alexnet, st->grid, kSerial, kMeasured));
  searches.push_back(search_once(st->alexnet, st->grid, kSharedPool, kPooled));
  const double rss = peak_rss_mib();

  const std::int64_t expected =
      st->grid.configurations() *
      (std::int64_t{1} << st->alexnet.net.conv_layers.size());
  const HostMeter& host = report.host();
  std::vector<std::pair<Timed, double>> ops;
  std::vector<Timed> latency;
  std::int64_t measured = 0;
  std::int64_t good = 0;
  std::int64_t bad = 0;
  for (const Search& s : searches) {
    const bool right = s.stats.evaluated == expected &&
                       s.frontier_hash == st->cold.frontier_hash &&
                       s.stats.contains_paper_point;
    if (!right) ++bad;
    if (s.phase != kMeasured) continue;
    ++measured;
    if (right) ++good;
    const Timed t = timed(host, windows, s.begin, s.end);
    ops.emplace_back(t, static_cast<double>(expected));
    latency.push_back(t);
  }

  report.end_to_end("throughput_per_s", work_rate(ops));
  report.end_to_end("latency_p50_ms", pooled_quantile(latency, 0.5));
  // 25-60 searches a run: p60 is the highest percentile with ten samples
  // beyond it in the slowest runs.
  report.end_to_end("latency_tail_ms", pooled_quantile(latency, 0.6));
  report.end_to_end("goodput_share", ratio(static_cast<double>(good),
                                           static_cast<double>(measured)));
  report.end_to_end("peak_rss_mb", rss);

  report.attempted = static_cast<std::int64_t>(searches.size());
  report.failed = bad;
  report.check("every search, serial or on the shared pool, evaluates the "
               "whole grid, finds the same frontier and keeps the paper "
               "point on it",
               bad == 0, std::to_string(bad) + " searches differed");
  if (!cfg.smoke)
    report.check("the paper grid has 215,040 points",
                 expected == kPaperGridPoints, std::to_string(expected));
  report.invariant("evaluated_points", Json(expected));
  report.invariant("frontier_size", Json(st->cold.stats.frontier));
  report.invariant("frontier_hash", Json(std::to_string(st->cold.frontier_hash)));
  report.invariant("paper_point_fps", Json(st->cold.paper_fps));
  report.note("paper_reported_fps", Json(kPaperReportedFps));
  report.note("searches", Json(measured));

  if (!cfg.traced()) return;
  for (const Search& s : searches)
    trace.span(s.phase == kPooled ? "search_pooled" : "search", s.begin,
               s.end, 0, 0, 1);
  Rng rng(cfg.seed);
  const auto p0 = Clock::now();
  const std::vector<double> cost_us =
      point_cost_sample(st->alexnet, st->grid, rng);
  trace.span("point_cost_sample", p0, Clock::now(), 0, 0, 3);

  report.layer("dataflow.point_cost_us_p50", median(cost_us));
  report.layer("dse.pruned_share", st->cold.stats.pruned_fraction());
  report.layer("dse.frontier_size",
               static_cast<double>(st->cold.stats.frontier));
  report.layer("dse.paper_point_fps", st->cold.paper_fps);
  report.not_exercised(
      {"serve.", "chain.", "nn.", "tensor.", "net.", "journal."});
}

}  // namespace bench
