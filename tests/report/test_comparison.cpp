#include "report/comparison.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "report/paper_constants.hpp"

namespace chainnn::report {
namespace {

TEST(Comparison, RendersOneMarkdownRowPerFigure) {
  ComparisonTable t;
  t.add({"Fig. 9 conv1 (ms)", 159.30, 160.0, 0.01, "why"});
  EXPECT_EQ(t.render(),
            "| figure | paper | reproduced | ratio | tolerance | cause |\n"
            "|---|---|---|---|---|---|\n"
            "| Fig. 9 conv1 (ms) | 159.3 | 160 | 1.004 | 0.01 | why |\n");
}

TEST(Comparison, ToleranceBoundsTheRatio) {
  const ComparisonTable::Row in{"a", 100.0, 109.0, 0.1, "c"};
  const ComparisonTable::Row out{"b", 100.0, 89.0, 0.1, "c"};
  EXPECT_NEAR(in.ratio(), 1.09, 1e-12);
  EXPECT_TRUE(in.within_tolerance());
  EXPECT_FALSE(out.within_tolerance());
}

TEST(Comparison, RejectsRowsItCannotRender) {
  ComparisonTable t;
  EXPECT_THROW(t.add({"no paper value", 0.0, 1.0, 0.1, "c"}),
               std::logic_error);
  EXPECT_THROW(t.add({"a", 1.0, 1.0, 0.1, "a | b"}), std::logic_error);
}

TEST(FidelityLedger, EveryRowWithinItsTolerance) {
  const ComparisonTable ledger = fidelity_ledger();
  for (const ComparisonTable::Row& r : ledger.rows()) {
    EXPECT_FALSE(r.cause.empty()) << r.figure;
    EXPECT_LE(std::fabs(r.ratio() - 1.0), r.tolerance)
        << r.figure << ": paper " << r.paper << ", reproduced "
        << r.reproduced << " (" << r.cause << ")";
  }
}

// Every number in paper_constants.hpp, each in the constant's own unit.
std::vector<double> paper_figures() {
  std::vector<double> v = {
      kNumPes, kClockHz, kCriticalPathNs, kPeakGops, kPowerW,
      kEfficiencyGopsPerW, kGateCountK, kGatesPerPeK, kOnChipKiB,
      kIMemoryKiB, kKMemoryKiB, kOMemoryKiB, kKernelWordsPerPe,
      kPipelineStages, kBatchMs, kKernelLoadTotalMs, kFpsBatch128,
      kFpsBatch4, static_cast<double>(kAlexNetMacsMillions),
      kTable4TotalDram, kTable4TotalImem, kTable4TotalKmem,
      kTable4TotalOmem, kChainPowerMw, kKmemPowerMw, kImemPowerMw,
      kOmemPowerMw, kCoreOnlyGopsPerW, kKmemActivityConv3, kDaDianNaoCoreW,
      kDaDianNaoMemoryW, kDaDianNaoCoreOnlyGopsPerW,
      kEyerissScaledTo28nmGopsPerW, kEyerissGatesPerPeK,
      kAreaEfficiencyRatio, kMinEfficiencyGain, kMaxEfficiencyGain,
      kUtilizationLowPct, kUtilizationHighPct};
  for (const Table2Row& r : kTable2)
    v.insert(v.end(), {static_cast<double>(r.pes_per_primitive),
                       static_cast<double>(r.active_primitives),
                       static_cast<double>(r.active_pes), r.efficiency_pct});
  for (const Fig9Row& r : kFig9) v.insert(v.end(), {r.conv_ms, r.kernel_load_ms});
  for (const Table4Row& r : kTable4)
    v.insert(v.end(), {r.dram_mb, r.imem_mb, r.kmem_mb, r.omem_mb});
  for (const ComparisonColumn& c : {kDaDianNao, kEyeriss, kChainNN}) {
    if (c.gate_count_k >= 0) v.push_back(c.gate_count_k);  // <0: none
    v.insert(v.end(), {c.clock_mhz, c.power_w, c.peak_gops,
                       c.efficiency_gops_per_w});
  }
  return v;
}

TEST(FidelityLedger, EveryPaperFigureHasARow) {
  // A row may show a figure in another unit (W as mW, a fraction as %),
  // so its paper value matches up to a power of ten.
  const ComparisonTable ledger = fidelity_ledger();
  for (const double figure : paper_figures()) {
    const bool found = std::any_of(
        ledger.rows().begin(), ledger.rows().end(),
        [figure](const ComparisonTable::Row& r) {
          const double decades = std::log10(r.paper / figure);
          return std::fabs(decades - std::round(decades)) < 1e-9;
        });
    EXPECT_TRUE(found) << "no ledger row shows the paper's " << figure;
  }
}

// The markdown table that follows README's "Reproduction status" heading.
std::string readme_ledger_table() {
  std::ifstream in(std::filesystem::path(CHAINNN_SOURCE_DIR) / "README.md");
  std::ostringstream readme;
  readme << in.rdbuf();
  const std::string text = readme.str();
  const std::size_t section = text.find("\n## Reproduction status\n");
  if (section == std::string::npos) return "";
  std::size_t line = text.find("\n|", section);
  std::string table;
  while (line != std::string::npos && text.compare(line + 1, 1, "|") == 0) {
    const std::size_t end = text.find('\n', line + 1);
    if (end == std::string::npos) break;
    table += text.substr(line + 1, end - line);
    line = end;
  }
  return table;
}

TEST(FidelityLedger, ReadmeHoldsTheRenderedLedger) {
  const std::string rendered = fidelity_ledger().render();
  EXPECT_TRUE(readme_ledger_table() == rendered)
      << "README.md's \"Reproduction status\" table is stale; replace it "
         "with the output of examples/reproduce:\n"
      << rendered;
}

}  // namespace
}  // namespace chainnn::report
