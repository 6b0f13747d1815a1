// Every number the paper reports, as named constants. Each has a row in
// report::fidelity_ledger() (comparison.hpp), which sets it against the
// reproduced value. Section/table references are given per constant.
#pragma once

#include <array>
#include <cstdint>

namespace chainnn::report {

// --- Chip instantiation (§V.B, Table V) -----------------------------------
inline constexpr std::int64_t kNumPes = 576;
inline constexpr double kClockHz = 700e6;
inline constexpr double kCriticalPathNs = 1.428;
inline constexpr double kPeakGops = 806.4;
inline constexpr double kPowerW = 0.5675;
inline constexpr double kEfficiencyGopsPerW = 1421.0;
inline constexpr double kGateCountK = 3751.0;
inline constexpr double kGatesPerPeK = 6.51;
inline constexpr double kOnChipKiB = 352.0;
inline constexpr double kIMemoryKiB = 32.0;
inline constexpr double kKMemoryKiB = 295.0;
inline constexpr double kOMemoryKiB = 25.0;
inline constexpr std::int64_t kKernelWordsPerPe = 256;
inline constexpr int kPipelineStages = 3;

// --- Table II: active PEs in the 576-PE chain -----------------------------
struct Table2Row {
  std::int64_t kernel;
  std::int64_t pes_per_primitive;
  std::int64_t active_primitives;
  std::int64_t active_pes;
  double efficiency_pct;  // as printed in the paper
};
// Note: the paper prints 100% for the 9x9 row although 567/576 = 98.4% —
// kept verbatim here; the ledger's 9x9 efficiency row names the misprint.
inline constexpr std::array<Table2Row, 5> kTable2 = {{
    {3, 9, 64, 576, 100.0},
    {5, 25, 23, 575, 99.8},
    {7, 49, 11, 539, 93.6},
    {9, 81, 7, 567, 100.0},
    {11, 121, 4, 484, 84.0},
}};

// --- Fig. 9: AlexNet layer times, batch 128 (ms) --------------------------
struct Fig9Row {
  const char* layer;
  double conv_ms;
  double kernel_load_ms;
};
inline constexpr std::array<Fig9Row, 5> kFig9 = {{
    {"conv1", 159.30, 0.05},
    {"conv2", 102.10, 0.43},
    {"conv3", 57.20, 1.23},
    {"conv4", 42.90, 0.93},
    {"conv5", 28.60, 0.62},
}};
inline constexpr double kBatchMs = 349.92;        // §V.B (as printed)
inline constexpr double kKernelLoadTotalMs = 3.25;
inline constexpr double kFpsBatch128 = 326.2;
inline constexpr double kFpsBatch4 = 275.6;
inline constexpr std::int64_t kAlexNetMacsMillions = 666;  // §V.B

// --- Table IV: memory traffic, batch 4 (MByte) -----------------------------
struct Table4Row {
  const char* layer;
  double dram_mb;
  double imem_mb;
  double kmem_mb;
  double omem_mb;
};
inline constexpr std::array<Table4Row, 5> kTable4 = {{
    {"conv1", 9.0, 6.6, 15.4, 13.9},
    {"conv2", 5.5, 8.7, 17.8, 143.3},
    {"conv3", 4.3, 4.8, 37.2, 265.8},
    {"conv4", 3.4, 3.6, 27.9, 199.4},
    {"conv5", 2.3, 2.4, 18.6, 132.9},
}};
inline constexpr double kTable4TotalDram = 24.5;
inline constexpr double kTable4TotalImem = 26.2;
inline constexpr double kTable4TotalKmem = 116.8;
inline constexpr double kTable4TotalOmem = 755.3;

// --- Fig. 10: power breakdown (mW) -----------------------------------------
inline constexpr double kChainPowerMw = 466.71;
inline constexpr double kKmemPowerMw = 40.15;
inline constexpr double kImemPowerMw = 3.91;
inline constexpr double kOmemPowerMw = 56.70;
inline constexpr double kCoreOnlyGopsPerW = 1727.8;
// kMemory activity factor for AlexNet conv3 (§V.C).
inline constexpr double kKmemActivityConv3 = 0.0222;

// --- Table V: state-of-the-art comparison -----------------------------------
struct ComparisonColumn {
  const char* name;
  const char* technology;
  double gate_count_k;     // <0 = not reported
  const char* onchip_memory;
  const char* parallelism;
  double clock_mhz;
  double power_w;
  double peak_gops;
  double efficiency_gops_per_w;
};
inline constexpr ComparisonColumn kDaDianNao = {
    "DaDianNao [10]", "STM 28nm", -1.0, "36MB eDRAM", "288x16",
    606.0, 15.97, 5584.9, 349.7};
inline constexpr ComparisonColumn kEyeriss = {
    "Eyeriss [12]", "TSMC 65nm", 1852.0, "181.5KB SRAM", "168",
    250.0, 0.450, 84.0, 245.6};
inline constexpr ComparisonColumn kChainNN = {
    "Chain-NN", "TSMC 28nm", 3751.0, "352.0KB SRAM", "576",
    700.0, 0.5675, 806.4, 1421.0};
// Fig. 10 / §V.D: DaDianNao power split and core-only efficiency.
inline constexpr double kDaDianNaoCoreW = 1.84;
inline constexpr double kDaDianNaoMemoryW = 14.13;
inline constexpr double kDaDianNaoCoreOnlyGopsPerW = 3035.3;
inline constexpr double kEyerissScaledTo28nmGopsPerW = 570.1;
inline constexpr double kEyerissGatesPerPeK = 11.02;
inline constexpr double kAreaEfficiencyRatio = 1.7;  // §V.D

// --- headline claims (§I / abstract) -----------------------------------------
inline constexpr double kMinEfficiencyGain = 2.5;  // vs best prior work
inline constexpr double kMaxEfficiencyGain = 4.1;
inline constexpr double kUtilizationLowPct = 84.0;
inline constexpr double kUtilizationHighPct = 100.0;

}  // namespace chainnn::report
