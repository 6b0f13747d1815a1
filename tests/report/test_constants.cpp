#include "report/paper_constants.hpp"

#include <gtest/gtest.h>

namespace chainnn::report {
namespace {

TEST(PaperConstants, PeakGopsConsistentWithPesAndClock) {
  EXPECT_NEAR(2.0 * kNumPes * kClockHz / 1e9, kPeakGops, 0.1);
}

TEST(PaperConstants, ClockMatchesCriticalPath) {
  EXPECT_NEAR(1e9 / kCriticalPathNs / 1e6, kClockHz / 1e6, 1.0);
}

TEST(PaperConstants, EfficiencyConsistentWithPowerAndThroughput) {
  EXPECT_NEAR(kPeakGops / kPowerW, kEfficiencyGopsPerW, 1.0);
}

TEST(PaperConstants, OnChipMemoryAddsUp) {
  EXPECT_DOUBLE_EQ(kIMemoryKiB + kKMemoryKiB + kOMemoryKiB, kOnChipKiB);
}

TEST(PaperConstants, KmemoryPerPeIs256Words) {
  // 295KB over 576 PEs = 512B = 256 16-bit words per PE (§V.B).
  EXPECT_NEAR(kKMemoryKiB * 1024 / kNumPes / 2.0,
              static_cast<double>(kKernelWordsPerPe), 7.0);
}

TEST(PaperConstants, Table2ActivePesConsistent) {
  for (const auto& row : kTable2) {
    EXPECT_EQ(row.pes_per_primitive, row.kernel * row.kernel);
    EXPECT_EQ(row.active_pes, row.active_primitives * row.pes_per_primitive);
    EXPECT_EQ(row.active_primitives, kNumPes / row.pes_per_primitive);
  }
}

TEST(PaperConstants, Fig9KernelLoadTimesMatchWeightCountsAt1WordPerCycle) {
  // weight counts: conv1 34848, conv2 307200, conv3 884736, conv4 663552,
  // conv5 442368 — at 700 MHz, 1 word/cycle.
  const double counts[5] = {34848, 307200, 884736, 663552, 442368};
  for (int i = 0; i < 5; ++i) {
    const double ms = counts[i] / kClockHz * 1e3;
    EXPECT_NEAR(ms, kFig9[i].kernel_load_ms, 0.05) << "conv" << i + 1;
  }
}

TEST(PaperConstants, Fig9TotalsAndFps) {
  double conv_total = 0.0, load_total = 0.0;
  for (const auto& row : kFig9) {
    conv_total += row.conv_ms;
    load_total += row.kernel_load_ms;
  }
  EXPECT_NEAR(load_total, kKernelLoadTotalMs, 0.02);
  // fps at batch 128 from the published layer times:
  const double fps = 128.0 / ((conv_total + load_total) / 1e3);
  EXPECT_NEAR(fps, kFpsBatch128, 3.0);
  // Note: the printed batch time 349.92ms is inconsistent with the
  // printed per-layer times (which sum to 390.1ms); we pin both values
  // (report::fidelity_ledger() sets each against the executed schedule).
  EXPECT_NEAR(conv_total, 390.1, 0.1);
}

TEST(PaperConstants, Table4TotalsMatchRows) {
  double dram = 0, imem = 0, kmem = 0, omem = 0;
  for (const auto& row : kTable4) {
    dram += row.dram_mb;
    imem += row.imem_mb;
    kmem += row.kmem_mb;
    omem += row.omem_mb;
  }
  EXPECT_NEAR(dram, kTable4TotalDram, 0.01);
  EXPECT_NEAR(imem, kTable4TotalImem, 0.11);  // paper rounds rows
  EXPECT_NEAR(kmem, kTable4TotalKmem, 0.11);
  EXPECT_NEAR(omem, kTable4TotalOmem, 0.11);
}

TEST(PaperConstants, Fig10ComponentsSumToTotalPower) {
  const double sum =
      kChainPowerMw + kKmemPowerMw + kImemPowerMw + kOmemPowerMw;
  EXPECT_NEAR(sum, kPowerW * 1e3, 0.1);
}

TEST(PaperConstants, EfficiencyGainsVsBaselines) {
  // Abstract: "2.5 to 4.1x times better than the state-of-the-art".
  const double vs_dadiannao =
      kEfficiencyGopsPerW / kDaDianNao.efficiency_gops_per_w;
  const double vs_eyeriss_scaled =
      kEfficiencyGopsPerW / kEyerissScaledTo28nmGopsPerW;
  EXPECT_NEAR(vs_dadiannao, kMaxEfficiencyGain, 0.1);
  EXPECT_NEAR(vs_eyeriss_scaled, kMinEfficiencyGain, 0.1);
}

TEST(PaperConstants, GateCountPerPe) {
  // 6.51k/PE x 576 = 3749.8k; the remaining ~1.2k is shared control.
  EXPECT_NEAR(kGatesPerPeK * kNumPes, kGateCountK, 2.0);
}

}  // namespace
}  // namespace chainnn::report
