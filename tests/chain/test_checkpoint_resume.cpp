// NetworkRunner checkpoint/resume: a run preempted at any inter-layer
// boundary and resumed from its RunCheckpoint must be bit-identical to
// an uninterrupted run — ofmaps, narrowing stats, cycles, traffic and the
// default weight stream all continue exactly where they stopped. Edge
// cases pinned here: checkpoint at layer 0 (nothing executed yet),
// checkpoint at the last boundary (one layer left), a chain of
// checkpoints at every boundary, resume on a *different* ArrayShape
// (re-plans, value-identical ofmaps), and cancel-beats-preempt ordering.
#include "chain/network_runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "serve/inference_server.hpp"  // network_runs_identical

namespace chainnn::chain {
namespace {

// Three conv layers so there are two interior boundaries besides the
// layer-0 one; pooling after layer 1 exercises resolved geometry across
// a resume.
nn::NetworkModel three_layer_net() {
  nn::NetworkModel net;
  net.name = "ckpt3";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 4;
  l1.in_height = l1.in_width = 12;
  l1.kernel = 3;
  l1.pad = 1;
  nn::ConvLayerParams l2;
  l2.name = "c2";
  l2.in_channels = 4;
  l2.out_channels = 4;
  l2.in_height = l2.in_width = 6;
  l2.kernel = 3;
  l2.pad = 1;
  nn::ConvLayerParams l3;
  l3.name = "c3";
  l3.in_channels = 4;
  l3.out_channels = 2;
  l3.in_height = l3.in_width = 6;
  l3.kernel = 3;
  l3.pad = 1;
  net.conv_layers = {l1, l2, l3};
  return net;
}

AcceleratorConfig small_cfg() {
  AcceleratorConfig cfg;
  cfg.array.num_pes = 64;
  cfg.array.kmem_words_per_pe = 64;
  return cfg;
}

NetworkRunOptions base_options() {
  NetworkRunOptions opts;
  opts.inter_layer = {InterLayerOp{true, true, nn::PoolParams{2, 2, 0}},
                      InterLayerOp{true, false, {}},
                      InterLayerOp{true, false, {}}};
  return opts;
}

Tensor<std::int16_t> test_input() {
  Tensor<std::int16_t> input(Shape{2, 2, 12, 12});
  Rng rng(11);
  input.fill_random(rng, -64, 64);
  return input;
}

// Runs to completion with a preemption forced at conv-layer boundary
// `boundary`, then resumes on `resume_acc` (may be the same accelerator)
// and returns the stitched result plus the captured checkpoint.
struct PreemptedRun {
  std::shared_ptr<RunCheckpoint> checkpoint;
  NetworkRunResult result;
};

PreemptedRun run_with_preemption_at(ChainAccelerator& acc,
                                    ChainAccelerator& resume_acc,
                                    const nn::NetworkModel& net,
                                    const Tensor<std::int16_t>& input,
                                    std::int64_t boundary) {
  const auto energy = energy::EnergyModel::paper_calibrated();
  NetworkRunner runner(acc, energy);
  NetworkRunOptions opts = base_options();
  std::int64_t polls = 0;
  opts.preempt_check = [&polls, boundary] { return polls++ == boundary; };

  PreemptedRun out;
  try {
    (void)runner.run(net, input, opts);
    ADD_FAILURE() << "run was not preempted";
  } catch (const RunPreempted& preempted) {
    out.checkpoint = preempted.checkpoint();
  }
  EXPECT_EQ(out.checkpoint->next_layer, boundary);
  EXPECT_EQ(out.checkpoint->layers.size(),
            static_cast<std::size_t>(boundary));

  NetworkRunner resume_runner(resume_acc, energy);
  NetworkRunOptions resume_opts = base_options();
  resume_opts.resume = out.checkpoint;
  out.result = resume_runner.run(net, input, resume_opts);
  return out;
}

TEST(CheckpointResume, EveryBoundaryIsBitIdenticalToUninterrupted) {
  const nn::NetworkModel net = three_layer_net();
  const Tensor<std::int16_t> input = test_input();
  const auto energy = energy::EnergyModel::paper_calibrated();

  ChainAccelerator plain_acc(small_cfg());
  NetworkRunner plain(plain_acc, energy);
  const NetworkRunResult uninterrupted =
      plain.run(net, input, base_options());
  ASSERT_EQ(uninterrupted.layers.size(), 3u);

  // Boundary 0 = before any layer (checkpoint carries the raw input);
  // boundary 2 = before the last layer (one layer left to resume).
  for (std::int64_t boundary = 0; boundary < 3; ++boundary) {
    SCOPED_TRACE("boundary " + std::to_string(boundary));
    ChainAccelerator acc(small_cfg());
    const PreemptedRun preempted =
        run_with_preemption_at(acc, acc, net, input, boundary);
    if (boundary == 0) {
      EXPECT_TRUE(preempted.checkpoint->layers.empty());
      EXPECT_TRUE(preempted.checkpoint->activations == input);
    }
    std::string why;
    EXPECT_TRUE(serve::network_runs_identical(uninterrupted,
                                              preempted.result, &why))
        << why;
    EXPECT_TRUE(preempted.result.all_verified());
  }
}

TEST(CheckpointResume, ChainOfCheckpointsAtEveryBoundary) {
  const nn::NetworkModel net = three_layer_net();
  const Tensor<std::int16_t> input = test_input();
  const auto energy = energy::EnergyModel::paper_calibrated();

  ChainAccelerator plain_acc(small_cfg());
  NetworkRunner plain(plain_acc, energy);
  const NetworkRunResult uninterrupted =
      plain.run(net, input, base_options());

  // Preempt at every boundary in turn: each resume immediately yields a
  // fresh checkpoint one layer further, and the final resume completes.
  ChainAccelerator acc(small_cfg());
  NetworkRunner runner(acc, energy);
  std::shared_ptr<RunCheckpoint> checkpoint;
  for (std::int64_t boundary = 1; boundary < 3; ++boundary) {
    NetworkRunOptions opts = base_options();
    opts.resume = checkpoint;
    std::int64_t polls = checkpoint ? checkpoint->next_layer : 0;
    opts.preempt_check = [&polls, boundary] {
      return polls++ == boundary;
    };
    try {
      (void)runner.run(net, input, opts);
      FAIL() << "expected preemption at boundary " << boundary;
    } catch (const RunPreempted& preempted) {
      checkpoint = preempted.checkpoint();
    }
    EXPECT_EQ(checkpoint->next_layer, boundary);
  }
  NetworkRunOptions final_opts = base_options();
  final_opts.resume = checkpoint;
  const NetworkRunResult resumed = runner.run(net, input, final_opts);

  std::string why;
  EXPECT_TRUE(serve::network_runs_identical(uninterrupted, resumed, &why))
      << why;
}

TEST(CheckpointResume, ResumeOnDifferentArrayReplansValueIdentical) {
  const nn::NetworkModel net = three_layer_net();
  const Tensor<std::int16_t> input = test_input();
  const auto energy = energy::EnergyModel::paper_calibrated();

  ChainAccelerator plain_acc(small_cfg());
  NetworkRunner plain(plain_acc, energy);
  const NetworkRunResult uninterrupted =
      plain.run(net, input, base_options());

  // Preempt after layer 1 on the 64-PE chip, resume on a 144-PE chip at
  // a different clock: the remaining layers re-plan for the new chain.
  AcceleratorConfig other = small_cfg();
  other.array.num_pes = 144;
  other.array.clock_hz = 350e6;
  ChainAccelerator acc(small_cfg());
  ChainAccelerator other_acc(other);
  const PreemptedRun moved =
      run_with_preemption_at(acc, other_acc, net, input, /*boundary=*/1);

  ASSERT_EQ(moved.result.layers.size(), 3u);
  // The checkpointed prefix keeps its original plan; the resumed layers
  // carry the new chip's.
  EXPECT_EQ(moved.result.layers[0].run.plan.array.num_pes, 64);
  EXPECT_EQ(moved.result.layers[1].run.plan.array.num_pes, 144);
  EXPECT_EQ(moved.result.layers[2].run.plan.array.num_pes, 144);
  // Value identity: the chain computes the same fixed-point math on any
  // shape, so every ofmap (and the final activations) matches the
  // uninterrupted single-chip run even though cycle accounting differs.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(moved.result.layers[i].run.ofmaps ==
                uninterrupted.layers[i].run.ofmaps)
        << "ofmaps differ at layer " << i;
  }
  EXPECT_TRUE(moved.result.final_activations ==
              uninterrupted.final_activations);
  EXPECT_TRUE(moved.result.all_verified());
  // And the resumed layers really were re-planned: a 144-PE chain with
  // the same kernel cannot have the same active-PE count pattern as the
  // 64-PE one here.
  EXPECT_NE(moved.result.layers[1].run.plan.active_pes,
            uninterrupted.layers[1].run.plan.active_pes);
}

TEST(CheckpointResume, CancelBeatsPreemptAtTheSameBoundary) {
  const nn::NetworkModel net = three_layer_net();
  const Tensor<std::int16_t> input = test_input();
  const auto energy = energy::EnergyModel::paper_calibrated();
  ChainAccelerator acc(small_cfg());
  NetworkRunner runner(acc, energy);

  NetworkRunOptions opts = base_options();
  opts.cancel_check = [] { return true; };
  opts.preempt_check = [] { return true; };
  // A request that is both dead and preemptible is dead: no checkpoint
  // is built for work nobody will resume.
  EXPECT_THROW((void)runner.run(net, input, opts), RunCancelled);
}

TEST(CheckpointResume, ResumeValidatesCheckpointShape) {
  const nn::NetworkModel net = three_layer_net();
  const Tensor<std::int16_t> input = test_input();
  const auto energy = energy::EnergyModel::paper_calibrated();
  ChainAccelerator acc(small_cfg());
  NetworkRunner runner(acc, energy);

  // next_layer pointing past the network is rejected.
  auto bogus = std::make_shared<RunCheckpoint>();
  bogus->next_layer = 7;
  bogus->activations = input;
  NetworkRunOptions opts = base_options();
  opts.resume = bogus;
  EXPECT_THROW((void)runner.run(net, input, opts), std::logic_error);

  // A checkpoint whose layer list disagrees with next_layer is rejected.
  auto skewed = std::make_shared<RunCheckpoint>();
  skewed->next_layer = 1;
  skewed->activations = input;
  NetworkRunOptions opts2 = base_options();
  opts2.resume = skewed;
  EXPECT_THROW((void)runner.run(net, input, opts2), std::logic_error);
}

}  // namespace
}  // namespace chainnn::chain
