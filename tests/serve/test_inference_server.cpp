// InferenceServer: request scheduling, per-request ExecMode overrides,
// and fidelity sampling — sampled cycle-accurate replays must
// be bit-identical to the analytical results, and an injected divergence
// must be caught and counted.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "serve/inference_server.hpp"

namespace chainnn::serve {
namespace {

// Two small conv layers; cycle-accurate runs finish in milliseconds.
nn::NetworkModel tiny_net() {
  nn::NetworkModel net;
  net.name = "tiny";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 3;
  l1.in_height = l1.in_width = 8;
  l1.kernel = 3;
  l1.pad = 1;
  l1.validate();
  nn::ConvLayerParams l2;
  l2.name = "c2";
  l2.in_channels = 3;
  l2.out_channels = 2;
  l2.in_height = l2.in_width = 8;
  l2.kernel = 3;
  l2.pad = 1;
  l2.validate();
  net.conv_layers = {l1, l2};
  return net;
}

Tensor<std::int16_t> tiny_input(std::int64_t batch, std::uint64_t seed) {
  Tensor<std::int16_t> input(Shape{batch, 2, 8, 8});
  Rng rng(seed);
  input.fill_random(rng, -64, 64);
  return input;
}

using WeightInit = std::function<void(std::int64_t, Tensor<std::int16_t>&)>;

void seeded_weights(std::int64_t, Tensor<std::int16_t>& kernels) {
  Rng rng(7);
  kernels.fill_random(rng, -16, 16);
}

// Observes completion order: wraps `weights` so the request appends `id`
// to `ids` when its last layer (tiny_net's layer 1) starts. With one
// worker requests run one at a time, so that order is the order they
// complete in.
struct LastLayerOrder {
  std::mutex mu;
  std::vector<std::int64_t> ids;

  WeightInit record(std::int64_t id, WeightInit weights = seeded_weights) {
    return [this, id, weights = std::move(weights)](
               std::int64_t layer, Tensor<std::int16_t>& kernels) {
      if (layer == 1) {
        std::lock_guard<std::mutex> lock(mu);
        ids.push_back(id);
      }
      weights(layer, kernels);
    };
  }
};

TEST(InferenceServer, DrainsQueueAndCountsRequests) {
  ServerOptions so;
  so.num_threads = 2;
  so.max_queue = 4;  // smaller than the submission burst: backpressure
  InferenceServer server(so);

  const nn::NetworkModel net = tiny_net();
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 10; ++i)
    futures.push_back(server.submit(net, /*batch=*/2));
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    EXPECT_EQ(r.exec_mode, chain::ExecMode::kAnalytical);
    EXPECT_EQ(r.run.layers.size(), 2u);
  }
  server.wait_idle();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 10);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.analytical_runs, 10);
  EXPECT_LE(stats.peak_queue_depth, so.max_queue);
  // Every request after the first resolves its plans from the cache.
  EXPECT_GT(stats.plan_cache.hits, 0u);
  EXPECT_EQ(stats.plan_cache.entries, 2u);
}

TEST(InferenceServer, PerRequestExecModeMatchesBitForBit) {
  InferenceServer server{ServerOptions{}};
  const nn::NetworkModel net = tiny_net();
  const Tensor<std::int16_t> input = tiny_input(2, 42);

  RequestOptions fast;
  fast.exec_mode = chain::ExecMode::kAnalytical;
  RequestOptions slow;
  slow.exec_mode = chain::ExecMode::kCycleAccurate;
  auto fa = server.submit(net, input, fast);
  auto sa = server.submit(net, input, slow);
  const InferenceResult fr = fa.get();
  const InferenceResult sr = sa.get();
  EXPECT_EQ(fr.exec_mode, chain::ExecMode::kAnalytical);
  EXPECT_EQ(sr.exec_mode, chain::ExecMode::kCycleAccurate);

  std::string why;
  EXPECT_TRUE(network_runs_identical(fr.run, sr.run, &why)) << why;

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.analytical_runs, 1);
  EXPECT_EQ(stats.cycle_accurate_runs, 1);
}

TEST(InferenceServer, FidelitySamplesAreBitIdentical) {
  ServerOptions so;
  so.num_threads = 2;
  so.fidelity_sample_every_n = 3;  // requests 3, 6, 9, ...
  InferenceServer server(so);

  const nn::NetworkModel net = tiny_net();
  constexpr int kRequests = 9;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(net, /*batch=*/2));

  int sampled = 0;
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    if (r.request_id % 3 == 0) {
      EXPECT_TRUE(r.fidelity.sampled) << "request " << r.request_id;
      ++sampled;
    } else {
      EXPECT_FALSE(r.fidelity.sampled) << "request " << r.request_id;
    }
    // The cycle-accurate replay must reproduce the analytical run
    // exactly — any divergence here is an engine bug.
    EXPECT_FALSE(r.fidelity.diverged) << r.fidelity.detail;
  }
  EXPECT_EQ(sampled, 3);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.fidelity_samples, 3);
  EXPECT_EQ(stats.fidelity_divergences, 0);
}

TEST(InferenceServer, InjectedDivergenceIsCaughtAndCounted) {
  ServerOptions so;
  so.fidelity_sample_every_n = 2;  // requests 2, 4
  // Corrupt one ofmap word of the replay of request 4 only: exactly one
  // of the two samples must report (and count) a divergence.
  so.fidelity_mutator_for_test = [](std::int64_t request_id,
                                    chain::NetworkRunResult& replay) {
    if (request_id != 4) return;
    auto& ofmaps = replay.layers.front().run.ofmaps;
    ofmaps.at_flat(0) = static_cast<std::int16_t>(ofmaps.at_flat(0) + 1);
  };
  InferenceServer server(so);

  const nn::NetworkModel net = tiny_net();
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(server.submit(net, /*batch=*/1));

  int divergences = 0;
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    if (r.request_id == 2) {
      EXPECT_TRUE(r.fidelity.sampled);
      EXPECT_FALSE(r.fidelity.diverged) << r.fidelity.detail;
    }
    if (r.request_id == 4) {
      EXPECT_TRUE(r.fidelity.sampled);
      EXPECT_TRUE(r.fidelity.diverged);
      EXPECT_FALSE(r.fidelity.detail.empty());
      ++divergences;
    }
  }
  EXPECT_EQ(divergences, 1);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.fidelity_samples, 2);
  EXPECT_EQ(stats.fidelity_divergences, 1);
}

TEST(InferenceServer, EnergyAndTrafficDivergencesAreCaught) {
  // The fidelity cross-check extends past ofmaps and cycles to the
  // LayerTraffic and energy rollups: a replay whose power or traffic
  // figures drift — identical activations, identical cycles — must
  // still be flagged and counted. Regression for cross-checks that
  // compared outputs only and let cost-model divergence through.
  const nn::NetworkModel net = tiny_net();
  const auto run_with_mutation =
      [&net](std::function<void(chain::NetworkRunResult&)> mutate) {
        ServerOptions so;
        so.fidelity_sample_every_n = 1;
        so.fidelity_mutator_for_test =
            [mutate = std::move(mutate)](std::int64_t,
                                         chain::NetworkRunResult& replay) {
              mutate(replay);
            };
        InferenceServer server(so);
        const InferenceResult r = server.submit(net, /*batch=*/1).get();
        EXPECT_TRUE(r.fidelity.sampled);
        EXPECT_EQ(server.stats().fidelity_divergences,
                  r.fidelity.diverged ? 1 : 0);
        return r;
      };

  // Per-layer power drift: caught, with the layer named.
  const InferenceResult power = run_with_mutation(
      [](chain::NetworkRunResult& replay) {
        replay.layers.front().power.chain_w *= 1.0 + 1e-6;
      });
  EXPECT_TRUE(power.fidelity.diverged);
  EXPECT_NE(power.fidelity.detail.find("power"), std::string::npos)
      << power.fidelity.detail;

  // Traffic drift (one stray kMemory read byte): caught.
  const InferenceResult traffic = run_with_mutation(
      [](chain::NetworkRunResult& replay) {
        replay.layers.front().run.traffic.kmem_reads += 1;
      });
  EXPECT_TRUE(traffic.fidelity.diverged);
  EXPECT_NE(traffic.fidelity.detail.find("traffic"), std::string::npos)
      << traffic.fidelity.detail;

  // Narrowing drift (one ulp of the squared error): caught. A result
  // keeps no accumulators, so these stats are what would show a psum
  // that differs behind identical ofmaps.
  const InferenceResult narrowing = run_with_mutation(
      [](chain::NetworkRunResult& replay) {
        double& sum_sq = replay.layers.front().run.narrowing.sum_sq_error;
        sum_sq = std::nextafter(sum_sq, std::numeric_limits<double>::max());
      });
  EXPECT_TRUE(narrowing.fidelity.diverged);
  EXPECT_NE(narrowing.fidelity.detail.find("narrowing"), std::string::npos)
      << narrowing.fidelity.detail;

  // Identity mutation: clean — the extended cross-check introduces no
  // false positives.
  const InferenceResult clean =
      run_with_mutation([](chain::NetworkRunResult&) {});
  EXPECT_FALSE(clean.fidelity.diverged) << clean.fidelity.detail;
}

TEST(InferenceServer, SharedCacheAcrossServers) {
  // Two servers sharing one cache: the second server's requests hit on
  // the first server's plans.
  auto cache = std::make_shared<PlanCache>();
  const nn::NetworkModel net = tiny_net();
  {
    ServerOptions so;
    so.plan_cache = cache;
    InferenceServer first(so);
    (void)first.submit(net, 1).get();
  }
  const PlanCacheStats after_first = cache->stats();
  EXPECT_EQ(after_first.entries, 2u);

  ServerOptions so;
  so.plan_cache = cache;
  InferenceServer second(so);
  (void)second.submit(net, 1).get();
  const PlanCacheStats after_second = cache->stats();
  EXPECT_EQ(after_second.entries, 2u);
  EXPECT_GE(after_second.hits, after_first.hits + 2);
}

TEST(InferenceServer, RequestErrorsResolveTheFuture) {
  InferenceServer server{ServerOptions{}};
  // Kernel taps exceed any chain: the request is priced at submit, so
  // the planner refuses it there — nothing is queued or counted.
  nn::NetworkModel unplannable = tiny_net();
  unplannable.conv_layers[0].kernel = 99;
  unplannable.conv_layers[0].in_height = 99;
  unplannable.conv_layers[0].in_width = 99;
  EXPECT_THROW((void)server.submit(unplannable, 1), std::logic_error);
  EXPECT_EQ(server.stats().submitted, 0);

  // An error raised during execution resolves the future with it instead
  // of hanging.
  RequestOptions throwing;
  throwing.weight_init = [](std::int64_t, Tensor<std::int16_t>&) {
    throw std::runtime_error("weights unavailable");
  };
  auto future = server.submit(tiny_net(), 1, throwing);
  EXPECT_ANY_THROW((void)future.get());
  server.wait_idle();
  EXPECT_EQ(server.stats().failed, 1);
}

TEST(InferenceServer, PastDeadlineAtSubmitResolvesCancelled) {
  InferenceServer server{ServerOptions{}};
  RequestOptions ro;
  ro.deadline_ms = -5.0;  // already missed when submitted
  const InferenceResult r = server.submit(tiny_net(), 1, ro).get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_EQ(r.completed_layers, 0);
  EXPECT_TRUE(r.run.layers.empty());
  EXPECT_FALSE(r.fidelity.sampled);
  server.wait_idle();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 0);
}

TEST(InferenceServer, AdmissionRefusesInfeasibleDeadline) {
  // A standalone server is a one-chip fleet, so it honours admission: a
  // deadline the modelled chain time already misses is refused at
  // submit, never queued and never run.
  InferenceServer server{ServerOptions{}};
  std::atomic<bool> ran{false};
  RequestOptions doomed;
  doomed.admission = true;
  doomed.deadline_ms = 0.0;
  doomed.weight_init = [&ran](std::int64_t layer, Tensor<std::int16_t>& k) {
    ran = true;
    seeded_weights(layer, k);
  };
  const InferenceResult r = server.submit(tiny_net(), 1, doomed).get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_TRUE(r.run.layers.empty());
  server.wait_idle();
  EXPECT_FALSE(ran.load());
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.cancelled, 0);

  // A feasible deadline passes admission and runs.
  RequestOptions feasible;
  feasible.admission = true;
  feasible.deadline_ms = 60e3;
  EXPECT_EQ(server.submit(tiny_net(), 1, feasible).get().status,
            RequestStatus::kOk);
  stats = server.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
}

// Budgets past the clock's range saturate instead of overflowing the
// conversion to a time point: a huge one never expires, a hugely
// negative one has already passed, and NaN is refused at submit.
TEST(InferenceServer, DeadlineBeyondTheClockRangeSaturates) {
  InferenceServer server{ServerOptions{}};
  for (const double budget_ms : {1e13, 1e300}) {
    SCOPED_TRACE(testing::Message() << "deadline_ms " << budget_ms);
    RequestOptions ro;
    ro.deadline_ms = budget_ms;
    const InferenceResult r = server.submit(tiny_net(), 1, ro).get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_FALSE(r.deadline_missed);
    EXPECT_FALSE(r.deadline_expired);
  }

  RequestOptions past;
  past.deadline_ms = -1e300;
  const InferenceResult r = server.submit(tiny_net(), 1, past).get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_TRUE(r.deadline_expired);

  RequestOptions nan;
  nan.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)server.submit(tiny_net(), 1, nan), std::logic_error);
  server.wait_idle();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.cancelled, 1);
}

TEST(InferenceServer, CancelTokenStopsBetweenLayers) {
  ServerOptions so;
  so.num_threads = 1;
  so.fidelity_sample_every_n = 1;  // must NOT replay a cancelled run
  InferenceServer server(so);

  // The token is set while layer 0's weights are drawn, so the run
  // passes layer 0's checkpoint, executes it, and stops at layer 1's.
  auto token = std::make_shared<std::atomic<bool>>(false);
  RequestOptions ro;
  ro.cancel = token;
  ro.weight_init = [token](std::int64_t layer_index,
                           Tensor<std::int16_t>& kernels) {
    if (layer_index == 0) token->store(true);
    Rng rng(99);
    kernels.fill_random(rng, -16, 16);
  };
  const InferenceResult r = server.submit(tiny_net(), 1, ro).get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_EQ(r.completed_layers, 1);
  EXPECT_TRUE(r.run.layers.empty());  // partial work is not delivered
  EXPECT_FALSE(r.fidelity.sampled);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.fidelity_samples, 0);
}

TEST(InferenceServer, HighPriorityOvertakesQueuedLowPriority) {
  // Priority-inversion scenario: a long low-priority request is already
  // running (it blocks inside weight_init until released), a second
  // low-priority request is queued, then a high-priority one arrives.
  // With one worker the high-priority request must overtake the queued
  // low-priority one.
  LastLayerOrder completion_order;
  std::promise<void> blocker_started;
  std::promise<void> release_blocker;
  std::shared_future<void> release = release_blocker.get_future().share();

  ServerOptions so;
  so.num_threads = 1;
  InferenceServer server(so);
  const nn::NetworkModel net = tiny_net();

  RequestOptions blocker;
  blocker.weight_init = completion_order.record(
      1, [&](std::int64_t layer_index, Tensor<std::int16_t>& kernels) {
        if (layer_index == 0) {
          blocker_started.set_value();
          release.wait();
        }
        seeded_weights(layer_index, kernels);
      });
  auto f1 = server.submit(net, 1, blocker);  // id 1, occupies the worker
  blocker_started.get_future().wait();

  RequestOptions low;   // id 2, tier 0
  RequestOptions high;  // id 3, tier 5
  high.priority = 5;
  low.weight_init = completion_order.record(2);
  high.weight_init = completion_order.record(3);
  auto f2 = server.submit(net, 1, low);
  auto f3 = server.submit(net, 1, high);
  release_blocker.set_value();
  (void)f1.get();
  (void)f2.get();
  (void)f3.get();
  server.wait_idle();

  const std::vector<std::int64_t>& order = completion_order.ids;
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);  // the blocker finishes first
  EXPECT_EQ(order[1], 3);  // high priority overtakes...
  EXPECT_EQ(order[2], 2);  // ...the earlier low-priority one
}

TEST(InferenceServer, EarliestDeadlineFirstWithinATier) {
  LastLayerOrder completion_order;
  std::promise<void> blocker_started;
  std::promise<void> release_blocker;
  std::shared_future<void> release = release_blocker.get_future().share();

  ServerOptions so;
  so.num_threads = 1;
  InferenceServer server(so);
  const nn::NetworkModel net = tiny_net();

  RequestOptions blocker;
  blocker.weight_init = completion_order.record(
      1, [&](std::int64_t layer_index, Tensor<std::int16_t>& kernels) {
        if (layer_index == 0) {
          blocker_started.set_value();
          release.wait();
        }
        seeded_weights(layer_index, kernels);
      });
  auto f1 = server.submit(net, 1, blocker);
  blocker_started.get_future().wait();

  // Same tier; the later-submitted request has the earlier deadline and
  // a no-deadline request sorts after both.
  RequestOptions none;                   // id 2
  RequestOptions loose, tight;
  loose.deadline_ms = 60e3;              // id 3
  tight.deadline_ms = 30e3;              // id 4
  none.weight_init = completion_order.record(2);
  loose.weight_init = completion_order.record(3);
  tight.weight_init = completion_order.record(4);
  auto f2 = server.submit(net, 1, none);
  auto f3 = server.submit(net, 1, loose);
  auto f4 = server.submit(net, 1, tight);
  release_blocker.set_value();
  (void)f1.get();
  (void)f2.get();
  (void)f3.get();
  (void)f4.get();
  server.wait_idle();

  const std::vector<std::int64_t>& order = completion_order.ids;
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 4);  // tightest deadline first
  EXPECT_EQ(order[2], 3);
  EXPECT_EQ(order[3], 2);  // no deadline goes last
}

TEST(InferenceServer, PreemptionCheckpointsAndResumesBitIdentical) {
  // One worker, preemption on: a tier-0 request is mid-run (blocked in
  // layer 0's weight_init) when a tier-1 request arrives. The worker
  // must checkpoint the tier-0 run at the layer-1 boundary, serve the
  // tier-1 request first, then resume the checkpoint — and the resumed
  // result must be bit-identical to running the request undisturbed.
  LastLayerOrder completion_order;
  std::promise<void> blocker_started;
  std::promise<void> release_blocker;
  std::shared_future<void> release = release_blocker.get_future().share();
  std::atomic<bool> gated{false};

  ServerOptions so;
  so.num_threads = 1;
  so.enable_preemption = true;
  InferenceServer server(so);
  const nn::NetworkModel net = tiny_net();
  const Tensor<std::int16_t> input = tiny_input(1, 321);

  // Per-layer-pure weights so the direct replay below draws the same
  // kernels without the gating side effects.
  const auto weights = [](std::int64_t layer, Tensor<std::int16_t>& k) {
    Rng rng(700 + static_cast<std::uint64_t>(layer));
    k.fill_random(rng, -16, 16);
  };
  RequestOptions victim;  // id 1, tier 0
  victim.weight_init = completion_order.record(
      1, [&](std::int64_t layer, Tensor<std::int16_t>& k) {
        if (layer == 0 && !gated.exchange(true)) {
          blocker_started.set_value();
          release.wait();
        }
        weights(layer, k);
      });
  auto victim_future = server.submit(net, input, victim);
  blocker_started.get_future().wait();

  RequestOptions urgent;  // id 2, tier 1 — queued while the victim runs
  urgent.priority = 1;
  urgent.weight_init = completion_order.record(2);
  auto urgent_future = server.submit(net, 1, urgent);
  release_blocker.set_value();

  const InferenceResult vr = victim_future.get();
  const InferenceResult ur = urgent_future.get();
  server.wait_idle();

  EXPECT_EQ(vr.status, RequestStatus::kOk);
  EXPECT_EQ(ur.status, RequestStatus::kOk);
  EXPECT_EQ(vr.preemptions, 1);
  EXPECT_TRUE(vr.resumed);
  // wall_ms spans every attempt: the pre-preemption slice plus the
  // resumed run (queue time between them excluded).
  EXPECT_GT(vr.wall_ms, 0.0);
  EXPECT_FALSE(ur.resumed);
  const std::vector<std::int64_t>& order = completion_order.ids;
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // the urgent request went first
  EXPECT_EQ(order[1], 1);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.preemptions, 1);
  EXPECT_EQ(stats.resumes, 1);

  // Bit-identity of the preempted-and-resumed run vs the same request
  // executed undisturbed.
  chain::ChainAccelerator acc(so.accelerator);
  chain::NetworkRunner runner(acc, so.energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = false;
  ro.weight_init = weights;
  const chain::NetworkRunResult direct = runner.run(net, input, ro);
  std::string why;
  EXPECT_TRUE(network_runs_identical(vr.run, direct, &why)) << why;
}

TEST(InferenceServer, DeadHigherTierWaiterDoesNotPreempt) {
  // A queued higher-tier request that is already dead on arrival (cancel
  // token pre-set) resolves at pickup without touching the chip, so it
  // must not checkpoint the healthy lower-tier run that is in flight.
  std::promise<void> blocker_started;
  std::promise<void> release_blocker;
  std::shared_future<void> release = release_blocker.get_future().share();
  std::atomic<bool> gated{false};

  ServerOptions so;
  so.num_threads = 1;
  so.enable_preemption = true;
  InferenceServer server(so);
  const nn::NetworkModel net = tiny_net();

  RequestOptions victim;
  victim.weight_init = [&](std::int64_t layer, Tensor<std::int16_t>& k) {
    if (layer == 0 && !gated.exchange(true)) {
      blocker_started.set_value();
      release.wait();
    }
    Rng rng(7);
    k.fill_random(rng, -16, 16);
  };
  auto f1 = server.submit(net, 1, victim);
  blocker_started.get_future().wait();

  RequestOptions dead;
  dead.priority = 2;
  dead.cancel = std::make_shared<std::atomic<bool>>(true);
  auto f2 = server.submit(net, 1, dead);
  release_blocker.set_value();

  EXPECT_EQ(f1.get().status, RequestStatus::kOk);
  EXPECT_EQ(f2.get().status, RequestStatus::kCancelled);
  server.wait_idle();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.preemptions, 0);
  EXPECT_EQ(stats.resumes, 0);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cancelled, 1);
}

TEST(InferenceServer, PreemptedThenCancelledAtPickupKeepsAttemptWallTime) {
  // Regression: a preempted request whose cancel token is set while it
  // waits to resume is resolved dead-on-arrival at pickup — and used to
  // report wall_ms = 0, silently dropping the execution time its first
  // attempt already accumulated. It also re-sampled the clock when
  // classifying the cancellation, so with a deadline attached the
  // token-cancel could masquerade as deadline_expired. Pin both fixes.
  std::promise<void> victim_started;
  std::promise<void> release_victim;
  std::shared_future<void> victim_gate = release_victim.get_future().share();
  std::promise<void> urgent_started;
  std::promise<void> release_urgent;
  std::shared_future<void> urgent_gate = release_urgent.get_future().share();
  std::atomic<bool> victim_gated{false};
  std::atomic<bool> urgent_gated{false};

  ServerOptions so;
  so.num_threads = 1;
  so.enable_preemption = true;
  InferenceServer server(so);
  const nn::NetworkModel net = tiny_net();

  RequestOptions victim;  // id 1, tier 0
  victim.deadline_ms = 60000.0;  // generous: any deadline_expired is a bug
  victim.cancel = std::make_shared<std::atomic<bool>>(false);
  victim.weight_init = [&](std::int64_t layer, Tensor<std::int16_t>& k) {
    if (layer == 0 && !victim_gated.exchange(true)) {
      victim_started.set_value();
      victim_gate.wait();
    }
    Rng rng(7);
    k.fill_random(rng, -16, 16);
  };
  auto victim_future = server.submit(net, 1, victim);
  victim_started.get_future().wait();

  RequestOptions urgent;  // id 2, tier 1 — forces the checkpoint
  urgent.priority = 1;
  urgent.weight_init = [&](std::int64_t layer, Tensor<std::int16_t>& k) {
    if (layer == 0 && !urgent_gated.exchange(true)) {
      urgent_started.set_value();
      urgent_gate.wait();
    }
    Rng rng(7);
    k.fill_random(rng, -16, 16);
  };
  auto urgent_future = server.submit(net, 1, urgent);
  release_victim.set_value();

  // The urgent request executing proves the victim was checkpointed and
  // re-enqueued; cancel it *while it waits to resume*, then let the
  // urgent request finish so the worker reaches the dead checkpoint.
  urgent_started.get_future().wait();
  victim.cancel->store(true);
  release_urgent.set_value();

  const InferenceResult ur = urgent_future.get();
  const InferenceResult vr = victim_future.get();
  server.wait_idle();

  EXPECT_EQ(ur.status, RequestStatus::kOk);
  EXPECT_EQ(ur.preemptions, 0);

  EXPECT_EQ(vr.status, RequestStatus::kCancelled);
  EXPECT_EQ(vr.preemptions, 1);
  EXPECT_EQ(vr.completed_layers, 1);  // the checkpointed layer still counts
  EXPECT_FALSE(vr.resumed);           // the terminal attempt never ran
  // The fixes under test: the first attempt's execution time survives,
  // and a token cancellation is never classified as a deadline expiry.
  EXPECT_GT(vr.wall_ms, 0.0);
  EXPECT_FALSE(vr.deadline_expired);
  EXPECT_FALSE(vr.deadline_missed);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.preemptions, 1);
  EXPECT_EQ(stats.resumes, 0);  // a cancelled checkpoint never resumes
  EXPECT_EQ(stats.deadline_expired, 0);
}

TEST(InferenceServer, NoPreemptionAcrossEqualTiers) {
  // Preemption requires a *strictly* higher tier: an equal-priority
  // arrival (even with a tighter deadline) never checkpoints the
  // running request.
  std::promise<void> blocker_started;
  std::promise<void> release_blocker;
  std::shared_future<void> release = release_blocker.get_future().share();
  std::atomic<bool> gated{false};

  ServerOptions so;
  so.num_threads = 1;
  so.enable_preemption = true;
  InferenceServer server(so);
  const nn::NetworkModel net = tiny_net();

  RequestOptions first;
  first.weight_init = [&](std::int64_t layer, Tensor<std::int16_t>& k) {
    if (layer == 0 && !gated.exchange(true)) {
      blocker_started.set_value();
      release.wait();
    }
    Rng rng(7);
    k.fill_random(rng, -16, 16);
  };
  auto f1 = server.submit(net, 1, first);
  blocker_started.get_future().wait();
  RequestOptions tight;
  tight.deadline_ms = 10e3;
  auto f2 = server.submit(net, 1, tight);
  release_blocker.set_value();
  (void)f1.get();
  (void)f2.get();
  server.wait_idle();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.preemptions, 0);
  EXPECT_EQ(stats.resumes, 0);
  EXPECT_EQ(stats.completed, 2);
}

TEST(InferenceServer, CompletedPastDeadlineCountsAsMiss) {
  ServerOptions so;
  so.num_threads = 1;
  InferenceServer server(so);

  // The deadline expires while the request is already executing (the
  // checkpoint gate sits *between* layers, so a single-layer network
  // always runs to completion): kOk, but flagged and counted as a miss.
  nn::NetworkModel net = tiny_net();
  net.conv_layers.resize(1);
  RequestOptions ro;
  ro.deadline_ms = 2000.0;  // generous: the pickup must beat it even on
                            // a loaded sanitizer runner...
  ro.weight_init = [&](std::int64_t, Tensor<std::int16_t>& kernels) {
    // ...and the execution must overshoot it.
    std::this_thread::sleep_for(std::chrono::milliseconds(3100));
    Rng rng(7);
    kernels.fill_random(rng, -16, 16);
  };
  const InferenceResult r = server.submit(net, 1, ro).get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_TRUE(r.deadline_missed);
  EXPECT_EQ(r.completed_layers, 1);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.deadline_misses, 1);
  EXPECT_EQ(stats.cancelled, 0);
}

}  // namespace
}  // namespace chainnn::serve
