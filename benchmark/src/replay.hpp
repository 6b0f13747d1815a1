// Traced layer replay: after the timed windows, a sample of served
// requests is re-run in isolation through the public per-layer calls —
// NetworkRunner::run as a whole, then per conv layer the weight fill,
// PlanCache::plan_for, nn::conv2d_fixed_accum_dispatch,
// ChainAccelerator::run_layer, EnergyModel::power and ReLU/max-pool — to
// attribute a request's execution time to layers.
//
// Each stage is the median of nine repeats that interleave the
// whole-run and per-layer passes, so host noise hits both alike, and is
// timed at the reference speed (HostMeter), as the end-to-end metrics
// are: the host's slow stretches last long enough to cover a few repeats
// of a large request's whole run and miss its per-layer pass. Self
// times are differences of medians (run_layer minus its kernel and plan
// lookup), never minima of differences: on layers as small as LeNet's a
// minimum of a difference comes out negative.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "serving.hpp"

namespace bench {

// One served request the replay may pick.
struct ReplayCandidate {
  const ServedModel* model = nullptr;
  const Tensor<std::int16_t>* input = nullptr;
  chain::AcceleratorConfig accelerator;  // the chip that served it
  std::uint64_t digest = 0;              // what it served
  std::int64_t request = 0;
};

// Replays every 20th of `served` (in order; at most 8, and none started
// once half of --seconds is spent on replays, so a traced run stays
// within twice the untraced one), checks each reproduced its served
// digest, and reports the chain.* and nn.* per-layer metrics. Shares are
// of the summed runner time; unattributed is what no stage covers
// (executor construction, copies, result assembly).
void replay_sample(const std::vector<ReplayCandidate>& served,
                   const RunConfig& cfg, Trace& trace, Report& report);

}  // namespace bench
