// FSM execution-procedure tests (§III.B): "1) The finite-state machine is
// initialized ... 2) It starts to load related kernels ... 3) The ifmaps
// are continuously streamed in".
#include <gtest/gtest.h>

#include "chain/accelerator.hpp"
#include "chain/controller.hpp"
#include "common/rng.hpp"

namespace chainnn::chain {
namespace {

struct Fixture {
  nn::ConvLayerParams layer;
  Tensor<std::int16_t> x{Shape{1}};
  Tensor<std::int16_t> w{Shape{1}};
  AcceleratorConfig cfg;

  explicit Fixture(std::int64_t m = 4) {
    layer.name = "fsm";
    layer.in_channels = 2;
    layer.out_channels = m;
    layer.in_height = layer.in_width = 8;
    layer.kernel = 3;
    layer.validate();
    Rng rng(1);
    x = Tensor<std::int16_t>(Shape{1, 2, 8, 8});
    w = Tensor<std::int16_t>(Shape{m, 2, 3, 3});
    x.fill_random(rng, -16, 16);
    w.fill_random(rng, -4, 4);
    cfg.array.num_pes = 18;  // two primitives
    cfg.array.kmem_words_per_pe = 8;
  }
};

TEST(ControllerFsm, SequenceStartsWithLoadAndEndsIdle) {
  Fixture f;
  const auto plan = dataflow::plan_layer(f.layer, f.cfg.array, f.cfg.memory);
  LayerController ctrl(f.cfg, plan);
  RunStats stats;
  dataflow::LayerTraffic traffic;
  (void)ctrl.run(f.x, f.w, stats, traffic);

  const auto& trace = ctrl.fsm_trace();
  ASSERT_GE(trace.size(), 4u);
  EXPECT_EQ(trace.front(), ControllerState::kLoadKernels);
  EXPECT_EQ(trace[trace.size() - 2], ControllerState::kDrain);
  EXPECT_EQ(trace.back(), ControllerState::kIdle);
  EXPECT_EQ(ctrl.state(), ControllerState::kIdle);
}

TEST(ControllerFsm, OneLoadPerMGroupResidency) {
  Fixture f(5);  // 5 kernels, 2 primitives -> 3 m-groups
  const auto plan = dataflow::plan_layer(f.layer, f.cfg.array, f.cfg.memory);
  ASSERT_EQ(plan.m_groups, 3);
  LayerController ctrl(f.cfg, plan);
  RunStats stats;
  dataflow::LayerTraffic traffic;
  (void)ctrl.run(f.x, f.w, stats, traffic);

  std::int64_t loads = 0;
  for (const ControllerState s : ctrl.fsm_trace())
    if (s == ControllerState::kLoadKernels) ++loads;
  EXPECT_EQ(loads, 3);
}

TEST(ControllerFsm, OneStreamStatePerPass) {
  Fixture f;
  const auto plan = dataflow::plan_layer(f.layer, f.cfg.array, f.cfg.memory);
  LayerController ctrl(f.cfg, plan);
  RunStats stats;
  dataflow::LayerTraffic traffic;
  (void)ctrl.run(f.x, f.w, stats, traffic);

  std::int64_t streams = 0;
  for (const ControllerState s : ctrl.fsm_trace())
    if (s == ControllerState::kStream) ++streams;
  EXPECT_EQ(streams, stats.passes);
}

TEST(ControllerFsm, StateNames) {
  EXPECT_STREQ(state_name(ControllerState::kIdle), "IDLE");
  EXPECT_STREQ(state_name(ControllerState::kLoadKernels), "LOAD_KERNELS");
  EXPECT_STREQ(state_name(ControllerState::kStream), "STREAM");
  EXPECT_STREQ(state_name(ControllerState::kDrain), "DRAIN");
}

TEST(ControllerFsm, OversizedOmemoryBlockIsRefused) {
  // The controller enforces the oMemory capacity the plan promised: a
  // row block whose partials exceed plan.memory.omemory_bytes throws.
  Fixture f;
  auto plan = dataflow::plan_layer(f.layer, f.cfg.array, f.cfg.memory);
  const std::uint64_t block_bytes =
      static_cast<std::uint64_t>(plan.primitives * plan.row_block *
                                 f.layer.out_width()) *
      plan.memory.word_bytes;
  plan.memory.omemory_bytes = block_bytes - 1;
  LayerController ctrl(f.cfg, plan);
  RunStats stats;
  dataflow::LayerTraffic traffic;
  EXPECT_THROW((void)ctrl.run(f.x, f.w, stats, traffic), std::logic_error);
}

TEST(ControllerFsm, OversizedBlockRejectedByPlan) {
  // A layer whose single-kernel block partials exceed oMemory must be
  // rejected at planning time (capacity is a hard constraint).
  nn::ConvLayerParams wide;
  wide.name = "wide";
  wide.in_channels = 1;
  wide.out_channels = 1;
  wide.in_height = 40;
  wide.in_width = 20000;
  wide.kernel = 3;
  wide.pad = 1;
  wide.validate();
  mem::HierarchyConfig mem_cfg;  // 25KB oMemory < 3*20000*2B
  EXPECT_THROW(
      (void)dataflow::plan_layer(wide, dataflow::ArrayShape{}, mem_cfg),
      std::logic_error);
}

}  // namespace
}  // namespace chainnn::chain
