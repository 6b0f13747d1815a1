// Parallel Pareto design-space search: expands the
// (chain length x clock x kernel storage x oMemory x per-layer channel
// mode) grid from the paper's 576-PE/700MHz seed with the tensor-free
// closed-form evaluator, prunes dominated points, and emits the Pareto
// frontier as a machine-readable artifact (pareto.json) plus a markdown
// table.
//
// The top-k frontier points are then *re-executed* end to end through
// serve::SweepDriver — the closed forms must reproduce the executed
// cycles exactly and the executed energy to ~double precision, so the
// artifact is validated against the same engines the serving stack runs.
//
//   ./design_search [--model=alexnet] [--scale=1] [--batch=1]
//                   [--max-points=12000] [--topk=4] [--workers=0]
//                   [--pareto-json=pareto.json]   ("" = don't write)
//
// --workers=1 searches serially on the calling thread; any other value,
// the default 0 included, fans each wave out over the shared WorkPool.
//
// Exit codes: 0 ok; 2 when the frontier is empty, the paper point fell
// off it, nothing was pruned, or a re-executed point disagrees with the
// closed forms.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "serve/design_search.hpp"
#include "serve/router.hpp"
#include "serve/sweep_driver.hpp"

using namespace chainnn;

namespace {

std::string modes_string(const serve::EvaluatedDesignPoint& p) {
  std::string s;
  for (const std::uint8_t d : p.layer_dual) s += d ? 'D' : 'S';
  return s;
}

void write_pareto_json(const std::string& path, const nn::NetworkModel& net,
                       const serve::DesignSearchResult& result) {
  std::ostringstream os;
  os << "{\n  \"model\": \"" << net.name << "\",\n  \"stats\": {"
     << "\"evaluated\": " << result.stats.evaluated
     << ", \"infeasible\": " << result.stats.infeasible
     << ", \"pruned\": " << result.stats.pruned
     << ", \"frontier\": " << result.stats.frontier
     << ", \"waves\": " << result.stats.waves
     << ", \"points_per_sec\": " << result.stats.points_per_sec
     << ", \"contains_paper_point\": "
     << (result.stats.contains_paper_point ? "true" : "false") << "},\n"
     << "  \"frontier\": [\n";
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const serve::EvaluatedDesignPoint& p = result.frontier[i];
    os << "    {\"label\": \"" << p.label << "\""
       << ", \"num_pes\": " << p.array.num_pes
       << ", \"clock_mhz\": " << p.array.clock_hz / 1e6
       << ", \"kmem_words_per_pe\": " << p.array.kmem_words_per_pe
       << ", \"omemory_bytes\": " << p.memory.omemory_bytes
       << ", \"modes\": \"" << modes_string(p) << "\""
       << ", \"cycles\": " << p.cost.total_cycles
       << ", \"seconds\": " << p.cost.seconds
       << ", \"energy_j\": " << p.cost.energy_j
       << ", \"area_gates\": " << p.cost.area_gates << "}"
       << (i + 1 < result.frontier.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::ofstream out(path);
  out << os.str();
  std::cout << "wrote " << path << " (" << result.frontier.size()
            << " frontier points)\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  std::string err;
  const std::map<std::string, std::string> defaults = {
      {"model", "alexnet"},   {"scale", "1"},
      {"batch", "1"},         {"max-points", "12000"},
      {"topk", "4"},          {"workers", "0"},
      {"pareto-json", "pareto.json"}};
  if (!flags.parse(argc, argv, defaults, &err)) {
    std::cerr << err << "\n" << CliFlags::usage(defaults);
    return 1;
  }
  const auto net = nn::model_by_name(flags.get_string("model"));
  const std::int64_t scale = std::max<std::int64_t>(1, flags.get_int("scale"));
  const nn::NetworkModel proxy = serve::channel_reduced_proxy(net, scale);

  auto cache = std::make_shared<serve::PlanCache>();
  serve::DesignSearchOptions opts;
  opts.batch = std::max<std::int64_t>(1, flags.get_int("batch"));
  opts.max_points = flags.get_int("max-points");
  opts.num_workers = flags.get_int("workers");
  opts.plan_cache = cache;
  serve::DesignSearch search(proxy, serve::DesignSpaceGrid::paper_default(),
                             opts);
  const serve::DesignSearchResult result = search.run();
  const serve::DesignSearchStats& s = result.stats;

  std::cout << "design search (" << proxy.name << ", batch " << opts.batch
            << "): " << s.evaluated << " points in " << s.waves
            << " waves, " << strings::fmt_fixed(s.points_per_sec / 1e3, 1)
            << "k points/s\n"
            << "  frontier " << s.frontier << ", pruned " << s.pruned << " ("
            << strings::fmt_pct(s.pruned_fraction(), 1) << "), infeasible "
            << s.infeasible << ", paper point "
            << (s.contains_paper_point ? "ON" : "OFF") << " the frontier\n\n";

  // Markdown table: the k cheapest-by-cycles frontier points that an
  // executed sweep can reproduce (uniform channel mode — a chip's
  // ArrayShape sets dual_channel for every layer).
  std::vector<const serve::EvaluatedDesignPoint*> rerun;
  for (const serve::EvaluatedDesignPoint& p : result.frontier)
    if (p.uniform_mode()) rerun.push_back(&p);
  std::sort(rerun.begin(), rerun.end(),
            [](const auto* a, const auto* b) {
              return a->cost.total_cycles != b->cost.total_cycles
                         ? a->cost.total_cycles < b->cost.total_cycles
                         : a->id < b->id;
            });
  const std::size_t topk = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("topk")));
  if (rerun.size() > topk) rerun.resize(topk);

  std::cout << "| point | PEs | MHz | kw/PE | oMem KB | Mcycles | mJ | "
               "Mgates |\n|---|---|---|---|---|---|---|---|\n";
  for (const auto* p : rerun)
    std::cout << "| " << p->label << " | " << p->array.num_pes << " | "
              << strings::fmt_fixed(p->array.clock_hz / 1e6, 0) << " | "
              << p->array.kmem_words_per_pe << " | "
              << p->memory.omemory_bytes / 1024 << " | "
              << strings::fmt_fixed(
                     static_cast<double>(p->cost.total_cycles) / 1e6, 3)
              << " | " << strings::fmt_fixed(p->cost.energy_j * 1e3, 3)
              << " | "
              << strings::fmt_fixed(p->cost.area_gates / 1e6, 2) << " |\n";
  std::cout << "\n";

  // Validate the closed forms end to end: every tabled point re-executes
  // as a chip of its own through one SweepDriver (the plan cache is
  // shared with the search, so plans are not rebuilt).
  std::vector<serve::ChipSpec> chips;
  for (const auto* p : rerun) {
    serve::ChipSpec chip{p->label, p->array, p->memory};
    chip.array.dual_channel =
        p->layer_dual.empty() || p->layer_dual.front() != 0;
    chips.push_back(std::move(chip));
  }
  serve::SweepOptions so;
  so.batch = opts.batch;
  so.plan_cache = cache;
  serve::SweepDriver driver(proxy, so);
  const auto executed = driver.run(chips);
  bool executed_ok = true;
  for (std::size_t i = 0; i < rerun.size(); ++i) {
    const auto* p = rerun[i];
    const auto& r = executed[i];
    const double energy_rel =
        r.energy_j == 0.0 ? std::abs(p->cost.energy_j - r.energy_j)
                          : std::abs(p->cost.energy_j - r.energy_j) /
                                std::abs(r.energy_j);
    const bool ok = r.total_cycles == p->cost.total_cycles &&
                    energy_rel <= 1e-9;
    executed_ok = executed_ok && ok;
    std::cout << "re-executed " << p->label << ": cycles "
              << r.total_cycles << (r.total_cycles == p->cost.total_cycles
                                        ? " (exact match)"
                                        : " (MISMATCH)")
              << ", energy rel err " << energy_rel << (ok ? "" : "  <-- FAIL")
              << "\n";
  }

  const std::string json_path = flags.get_string("pareto-json");
  if (!json_path.empty()) write_pareto_json(json_path, proxy, result);

  if (s.frontier == 0) {
    std::cout << "ERROR: empty frontier\n";
    return 2;
  }
  if (!s.contains_paper_point) {
    std::cout << "ERROR: paper point (576 PEs @ 700 MHz) fell off the "
                 "frontier\n";
    return 2;
  }
  if (s.pruned == 0) {
    std::cout << "ERROR: dominance pruning eliminated nothing\n";
    return 2;
  }
  if (!executed_ok) {
    std::cout << "ERROR: executed sweep disagrees with the closed forms\n";
    return 2;
  }
  return 0;
}
