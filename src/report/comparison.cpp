#include "report/comparison.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "baseline/memory_centric.hpp"
#include "baseline/spatial_2d.hpp"
#include "common/check.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/traffic.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "energy/timing_model.hpp"
#include "mem/hierarchy.hpp"
#include "nn/models.hpp"
#include "report/paper_constants.hpp"

namespace chainnn::report {

bool ComparisonTable::Row::within_tolerance() const {
  return std::fabs(ratio() - 1.0) <= tolerance;
}

void ComparisonTable::add(Row row) {
  CHAINNN_CHECK_MSG(row.paper != 0.0, row.figure << ": no paper value");
  CHAINNN_CHECK_MSG(
      (row.figure + row.cause).find('|') == std::string::npos,
      row.figure << ": '|' would split a markdown cell");
  rows_.push_back(std::move(row));
}

namespace {

// Five significant digits: every paper figure prints as the paper does.
std::string fmt_value(double v) {
  std::ostringstream os;
  os << std::setprecision(5) << v;
  return os.str();
}

}  // namespace

std::string ComparisonTable::render() const {
  TextTable t;
  t.set_header(
      {"figure", "paper", "reproduced", "ratio", "tolerance", "cause"});
  for (const Row& r : rows_)
    t.add_row({r.figure, fmt_value(r.paper), fmt_value(r.reproduced),
               strings::fmt_fixed(r.ratio(), 3), fmt_value(r.tolerance),
               r.cause});
  return t.to_markdown();
}

namespace {

// Rows that match to double round-off.
constexpr double kExact = 1e-9;
constexpr double kMB = 1e6;  // Table IV's MB is 10^6 bytes
constexpr std::int64_t kFig9Batch = 128;
constexpr std::int64_t kTable4Batch = 4;
constexpr double kChainNnNodeNm = 28.0;

struct Bound {
  double tolerance;
  const char* cause;
};

constexpr const char* kLoadCause =
    "1 word/cycle; the paper's loads fit 1000/1024 of the word count";
constexpr const char* kStripRamps =
    "strip ramps: 233 slots per pass where the idealized model needs 169 "
    "(the paper sits 20% above it)";
constexpr const char* kRefetch =
    "kernels outgrow kMemory, so each m-group refetches its strips from "
    "DRAM";
constexpr const char* kPadding =
    "on-the-fly padding: iMemory never streams the zero border the paper "
    "counts";
constexpr const char* kConfiguredArray = "configured: ArrayShape default";
constexpr const char* kConfiguredMemory =
    "configured: HierarchyConfig default";
constexpr const char* kCalibratedFig10 =
    "calibrated to this figure: EnergyModel::paper_calibrated";
constexpr const char* kConfiguredDaDianNao =
    "configured: MemoryCentricConfig default (published)";
constexpr const char* kConfiguredEyeriss =
    "configured: Spatial2dConfig default (published)";

struct Table4Bounds {
  Bound dram, imem, kmem, omem;
};

// --- predicted: Table II, Fig. 9, Table IV, §V.C, Fig. 5 --------------------

void add_table2(ComparisonTable& t, const dataflow::ArrayShape& array) {
  constexpr std::array<Bound, 5> kEfficiency = {{
      {kExact, "active PEs over the chain; also the abstract's 100% high end"},
      {3e-4, "active PEs over the chain"},
      {3e-4, "active PEs over the chain"},
      {0.02, "paper misprint: 567/576 is 98.4%, printed as 100%"},
      {4e-4, "active PEs over the chain; also the abstract's 84% low end"},
  }};
  for (std::size_t i = 0; i < kTable2.size(); ++i) {
    const Table2Row& paper = kTable2[i];
    const dataflow::UtilizationRow r =
        dataflow::utilization_row(array, paper.kernel);
    const std::string k = "Table II " + std::to_string(paper.kernel) + "x" +
                          std::to_string(paper.kernel) + " ";
    t.add({k + "PEs per primitive",
           static_cast<double>(paper.pes_per_primitive),
           static_cast<double>(r.pes_per_primitive), kExact,
           "K^2 PEs form one primitive"});
    t.add({k + "active primitives",
           static_cast<double>(paper.active_primitives),
           static_cast<double>(r.active_primitives), kExact,
           "whole primitives that fit the chain"});
    t.add({k + "active PEs", static_cast<double>(paper.active_pes),
           static_cast<double>(r.active_pes), kExact,
           "active primitives x K^2"});
    t.add({k + "efficiency (%)", paper.efficiency_pct, 100.0 * r.efficiency,
           kEfficiency[i].tolerance, kEfficiency[i].cause});
  }
}

void add_fig9(ComparisonTable& t, const dataflow::ArrayShape& array,
              const std::vector<nn::ConvLayerParams>& layers) {
  constexpr std::array<Bound, 5> kConv = {{
      {0.5,
       "stride-phase decomposition: 16 phase sub-convs on 3x3 primitives, "
       "where the paper pays S=4x the stride-1 bound"},
      {0.02,
       "strip ramps and a 13-of-23-primitive m-group tail: 41% above the "
       "idealized 71.2 (the paper: 43%)"},
      {0.15, kStripRamps},
      {0.15, kStripRamps},
      {0.15, kStripRamps},
  }};
  constexpr std::array<double, 5> kLoad = {0.005, 0.03, 0.03, 0.02, 0.02};
  const auto ms = [&](std::int64_t cycles) {
    return static_cast<double>(cycles) / array.clock_hz * 1e3;
  };
  double batch_ms = 0.0, batch4_ms = 0.0, load_ms = 0.0, macs = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const dataflow::ExecutionPlan plan = dataflow::plan_layer(layers[i], array);
    const dataflow::LayerCycles c = dataflow::layer_cycles(plan, array);
    const std::string name = "Fig. 9 " + layers[i].name + " ";
    t.add({name + "conv time, batch 128 (ms)", kFig9[i].conv_ms,
           ms(c.total(kFig9Batch) - c.kernel_load), kConv[i].tolerance,
           kConv[i].cause});
    t.add({name + "kernel load (ms)", kFig9[i].kernel_load_ms,
           ms(c.kernel_load), kLoad[i], kLoadCause});
    batch_ms += ms(c.total(kFig9Batch));
    batch4_ms += ms(c.total(kTable4Batch));
    load_ms += ms(c.kernel_load);
    macs += static_cast<double>(layers[i].macs_per_image());
  }
  t.add({"§V.B batch time, batch 128 (ms)", kBatchMs, batch_ms, 0.04,
         "paper inconsistency: its Fig. 9 layers sum to 390.1 ms, not "
         "349.92"});
  t.add({"Fig. 9 kernel-load total (ms)", kKernelLoadTotalMs, load_ms, 0.03,
         kLoadCause});
  constexpr const char* kFps =
      "conv1's stride-phase decomposition (-46%) outweighs conv3-5's strip "
      "ramps (+14%)";
  t.add({"§V.B fps, batch 128", kFpsBatch128,
         static_cast<double>(kFig9Batch) / batch_ms * 1e3, 0.2, kFps});
  t.add({"§V.B fps, batch 4", kFpsBatch4,
         static_cast<double>(kTable4Batch) / batch4_ms * 1e3, 0.06, kFps});
  t.add({"§V.B AlexNet conv MACs (M)",
         static_cast<double>(kAlexNetMacsMillions), macs / 1e6, 4e-4,
         "conv1-5 of nn::alexnet; the paper rounds to 666M"});
}

void add_table4(ComparisonTable& t, const dataflow::ArrayShape& array,
                const std::vector<nn::ConvLayerParams>& layers) {
  constexpr const char* kKmemRounding = "within the paper's 0.1 MB rounding";
  constexpr const char* kOmemResidual = "an unattributed -0.2% to -0.3%";
  constexpr std::array<Table4Bounds, 5> kBounds = {{
      {{0.6,
        "stride-phase decomposition keeps strips resident; the paper "
        "re-streams them S=4 times"},
       {0.15, "stride-phase decomposition: each phase streams decimated "
              "strips"},
       {0.6, "stride-phase decomposition: 16 phase passes replace the "
             "11x11 strided pattern"},
       {15, "stride-phase decomposition: 16 phases accumulate their "
            "partials in oMemory"}},
      {{0.5, kRefetch},
       {0.4, kPadding},
       {0.08, "an unattributed -7%"},
       {0.015, "an unattributed -1%"}},
      {{0.4, kRefetch}, {0.4, kPadding}, {0.0015, kKmemRounding},
       {0.002, kOmemResidual}},
      {{0.3, kRefetch}, {0.4, kPadding}, {0.0015, kKmemRounding},
       {0.003, kOmemResidual}},
      {{0.3, kRefetch}, {0.4, kPadding}, {0.0015, kKmemRounding},
       {0.003, kOmemResidual}},
  }};
  double dram = 0.0, imem = 0.0, kmem = 0.0, omem = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const dataflow::LayerTraffic tr = dataflow::model_traffic(
        dataflow::plan_layer(layers[i], array), kTable4Batch);
    const Table4Row& paper = kTable4[i];
    const Table4Bounds& b = kBounds[i];
    const std::string name = "Table IV " + layers[i].name + " ";
    const double row[4] = {
        static_cast<double>(tr.dram_total()) / kMB,
        static_cast<double>(tr.imem_reads) / kMB,
        static_cast<double>(tr.kmem_total()) / kMB,
        static_cast<double>(tr.omem_total()) / kMB};
    t.add({name + "DRAM, batch 4 (MB)", paper.dram_mb, row[0],
           b.dram.tolerance, b.dram.cause});
    t.add({name + "iMemory, batch 4 (MB)", paper.imem_mb, row[1],
           b.imem.tolerance, b.imem.cause});
    t.add({name + "kMemory, batch 4 (MB)", paper.kmem_mb, row[2],
           b.kmem.tolerance, b.kmem.cause});
    t.add({name + "oMemory, batch 4 (MB)", paper.omem_mb, row[3],
           b.omem.tolerance, b.omem.cause});
    dram += row[0];
    imem += row[1];
    kmem += row[2];
    omem += row[3];
  }
  t.add({"Table IV total DRAM (MB)", kTable4TotalDram, dram, 0.03,
         "conv1 (-51%) and conv2-5's m-group refetches (+26% to +45%) net "
         "out"});
  t.add({"Table IV total iMemory (MB)", kTable4TotalImem, imem, 0.3,
         "on-the-fly padding (conv2-5) and conv1's decimated phases"});
  t.add({"Table IV total kMemory (MB)", kTable4TotalKmem, kmem, 0.09,
         "conv1's phase passes (-55%) and conv2's unattributed -7%"});
  t.add({"Table IV total oMemory (MB)", kTable4TotalOmem, omem, 0.3,
         "conv1's 16 phase partials (16x) outweigh conv2-5 (-0.4%)"});
}

void add_kmem_activity_and_fig5(
    ComparisonTable& t, const dataflow::ArrayShape& array,
    const std::vector<nn::ConvLayerParams>& layers) {
  const dataflow::ExecutionPlan conv3 = dataflow::plan_layer(layers[2], array);
  t.add({"§V.C kMemory activity, conv3 (%)", 100.0 * kKmemActivityConv3,
         100.0 * dataflow::kmem_activity_factor(conv3), 0.04,
         "a strip pass averages 46.6 slots; the paper's 2.22% is 1/45"});

  // Fig. 5 / §IV.C: single-channel PEs stream K times longer.
  dataflow::ArrayShape single = array;
  single.dual_channel = false;
  constexpr std::array<Bound, 2> kBounds = {{
      {0.15, "dual strips pay ramps, and the 2-row last strip a full "
             "K*(W-1) (951 vs 837 slots)"},
      {0.2, "dual strips pay ramps, and the 1-row last strip a full "
            "K*(W-1) (233 vs 195 slots)"},
  }};
  for (std::size_t i = 0; i < kBounds.size(); ++i) {
    const nn::ConvLayerParams& layer = layers[i + 1];  // conv2, conv3
    const auto stream = [&](const dataflow::ArrayShape& a) {
      return static_cast<double>(
          dataflow::layer_cycles(dataflow::plan_layer(layer, a), a)
              .stream_per_image);
    };
    t.add({"Fig. 5 " + layer.name + " single/dual-channel stream (K=" +
               std::to_string(layer.kernel) + ")",
           static_cast<double>(layer.kernel), stream(single) / stream(array),
           kBounds[i].tolerance, kBounds[i].cause});
  }
}

// --- restated: chip configuration, Fig. 10, area, timing, Table V ----------

void add_chip(ComparisonTable& t, const dataflow::ArrayShape& array) {
  const mem::HierarchyConfig memory;
  const auto kib = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / 1024.0;
  };
  t.add({"§V.B PEs in the chain", static_cast<double>(kNumPes),
         static_cast<double>(array.num_pes), kExact, kConfiguredArray});
  t.add({"§V.B clock (MHz)", kClockHz / 1e6, array.clock_hz / 1e6, kExact,
         kConfiguredArray});
  t.add({"§V.B MAC pipeline stages", static_cast<double>(kPipelineStages),
         static_cast<double>(array.pipeline_stages), kExact,
         kConfiguredArray});
  t.add({"§V.B kernel words per PE", static_cast<double>(kKernelWordsPerPe),
         static_cast<double>(array.kmem_words_per_pe), kExact,
         kConfiguredArray});
  t.add({"§V.B critical path (ns)", kCriticalPathNs,
         energy::TimingModel{}.critical_path_s(array.pipeline_stages) * 1e9,
         kExact, "calibrated to this figure: TimingModel at 3 stages"});
  t.add({"§V.B peak throughput (GOPS)", kPeakGops,
         array.peak_ops_per_s() / 1e9, kExact,
         "configured: 2 ops x PEs x clock"});
  t.add({"§V.B on-chip SRAM (KiB)", kOnChipKiB,
         kib(memory.imemory_bytes + memory.kmemory_bytes +
             memory.omemory_bytes),
         kExact, kConfiguredMemory});
  t.add({"§V.B iMemory (KiB)", kIMemoryKiB, kib(memory.imemory_bytes),
         kExact, kConfiguredMemory});
  t.add({"§V.B kMemory (KiB)", kKMemoryKiB, kib(memory.kmemory_bytes),
         kExact, kConfiguredMemory});
  t.add({"§V.B oMemory (KiB)", kOMemoryKiB, kib(memory.omemory_bytes),
         kExact, kConfiguredMemory});
}

void add_power_and_area(ComparisonTable& t,
                        const dataflow::ArrayShape& array) {
  const energy::AreaModel area;
  const energy::PowerBreakdown p =
      energy::EnergyModel::paper_calibrated().power(
          energy::paper_calibration_rates(), array.clock_hz, array.num_pes);
  const double efficiency =
      energy::efficiency_gops_per_w(array.peak_ops_per_s(), p.total());
  t.add({"Table V gate count (k)", kGateCountK,
         area.total_gates(array.num_pes) / 1e3, kExact,
         "calibrated: AreaModel's control overhead fits this figure"});
  t.add({"§V.D gates per PE (k)", kGatesPerPeK, area.gates_per_pe / 1e3,
         kExact, "configured: AreaModel default"});
  t.add({"Fig. 10 1D chain power (mW)", kChainPowerMw, p.chain_w * 1e3,
         kExact, kCalibratedFig10});
  t.add({"Fig. 10 kMemory power (mW)", kKmemPowerMw, p.kmem_w * 1e3, kExact,
         kCalibratedFig10});
  t.add({"Fig. 10 iMemory power (mW)", kImemPowerMw, p.imem_w * 1e3, kExact,
         kCalibratedFig10});
  t.add({"Fig. 10 oMemory power (mW)", kOmemPowerMw, p.omem_w * 1e3, kExact,
         kCalibratedFig10});
  t.add({"§V.C chip power (mW)", kPowerW * 1e3, p.total() * 1e3, 6e-5,
         "calibrated: the four Fig. 10 components sum to 567.47"});
  t.add({"Table V energy efficiency (GOPS/W)", kEfficiencyGopsPerW,
         efficiency, 4e-5,
         "calibrated: configured peak over calibrated power"});
  t.add({"Fig. 10 core-only efficiency (GOPS/W)", kCoreOnlyGopsPerW,
         energy::efficiency_gops_per_w(array.peak_ops_per_s(), p.chain_w),
         3e-5, "calibrated: configured peak over calibrated chain power"});

  const baseline::MemoryCentricModel dadiannao;
  const baseline::Spatial2dModel eyeriss;
  const baseline::Spatial2dConfig& ey = eyeriss.config();
  const double eyeriss_28nm = energy::scale_efficiency_to_node(
      ey.published_efficiency_gops_per_w, ey.technology_nm, kChainNnNodeNm);
  t.add({"§V.D gain over DaDianNao (x)", kMaxEfficiencyGain,
         efficiency / dadiannao.efficiency_gops_per_w(), 0.009,
         "calibrated: 1421.0 / 349.7 GOPS/W; the paper rounds 4.06 to 4.1"});
  t.add({"§V.D gain over Eyeriss at 28 nm (x)", kMinEfficiencyGain,
         efficiency / eyeriss_28nm, 0.004,
         "calibrated: 1421.0 / 570.1 GOPS/W; the paper rounds 2.49 to 2.5"});

  t.add({"Table V DaDianNao clock (MHz)", kDaDianNao.clock_mhz,
         dadiannao.config().clock_hz / 1e6, kExact, kConfiguredDaDianNao});
  t.add({"Table V DaDianNao power (W)", kDaDianNao.power_w,
         dadiannao.total_power_w(), kExact,
         "configured: 1.84 W core + 14.13 W memory"});
  t.add({"Table V DaDianNao peak (GOPS)", kDaDianNao.peak_gops,
         dadiannao.peak_ops_per_s() / 1e9, 8e-7,
         "configured: 2 ops x 4608 MACs x 606 MHz"});
  t.add({"Table V DaDianNao efficiency (GOPS/W)",
         kDaDianNao.efficiency_gops_per_w, dadiannao.efficiency_gops_per_w(),
         4e-5, "configured: peak over power"});
  t.add({"Fig. 10 DaDianNao core power (W)", kDaDianNaoCoreW,
         dadiannao.config().core_power_w, kExact, kConfiguredDaDianNao});
  t.add({"Fig. 10 DaDianNao memory power (W)", kDaDianNaoMemoryW,
         dadiannao.config().memory_power_w, kExact, kConfiguredDaDianNao});
  t.add({"Fig. 10 DaDianNao core-only efficiency (GOPS/W)",
         kDaDianNaoCoreOnlyGopsPerW,
         dadiannao.core_only_efficiency_gops_per_w(), 1.5e-5,
         "configured: peak over core power"});

  t.add({"Table V Eyeriss gate count (k)", kEyeriss.gate_count_k,
         ey.gates_per_pe * static_cast<double>(eyeriss.num_pes()) / 1e3,
         4e-4, "configured: 11.02k gates per PE x 168 PEs"});
  t.add({"Table V Eyeriss clock (MHz)", kEyeriss.clock_mhz,
         ey.clock_hz / 1e6, kExact, kConfiguredEyeriss});
  t.add({"Table V Eyeriss power (W)", kEyeriss.power_w, ey.power_w, kExact,
         kConfiguredEyeriss});
  t.add({"Table V Eyeriss peak (GOPS)", kEyeriss.peak_gops,
         eyeriss.peak_ops_per_s() / 1e9, kExact,
         "configured: 2 ops x 168 PEs x 250 MHz"});
  t.add({"Table V Eyeriss efficiency (GOPS/W)",
         kEyeriss.efficiency_gops_per_w, ey.published_efficiency_gops_per_w,
         kExact,
         "configured: published figure; 84.0 GOPS / 0.45 W is 186.7"});
  t.add({"Table V Eyeriss scaled to 28 nm (GOPS/W)",
         kEyerissScaledTo28nmGopsPerW, eyeriss_28nm, 8e-5,
         "configured: 245.6 GOPS/W x 65/28 (linear node scaling)"});
  t.add({"§V.D Eyeriss gates per PE (k)", kEyerissGatesPerPeK,
         ey.gates_per_pe / 1e3, kExact, kConfiguredEyeriss});
  t.add({"§V.D area efficiency over Eyeriss (x)", kAreaEfficiencyRatio,
         energy::area_efficiency_ratio(area.gates_per_pe, ey.gates_per_pe),
         0.005,
         "configured: 11.02k / 6.51k gates per PE; the paper rounds 1.69 "
         "to 1.7"});
}

}  // namespace

ComparisonTable fidelity_ledger() {
  const dataflow::ArrayShape array;
  const std::vector<nn::ConvLayerParams> layers = nn::alexnet().conv_layers;
  ComparisonTable t;
  add_table2(t, array);
  add_fig9(t, array, layers);
  add_table4(t, array, layers);
  add_kmem_activity_and_fig5(t, array, layers);
  add_chip(t, array);
  add_power_and_area(t, array);
  return t;
}

}  // namespace chainnn::report
