// Fleet: earliest-finish routing across heterogeneous chips, shared
// plan cache, deadline/cancellation accounting, and — the load-bearing
// guarantee — bit-identity of a fleet-routed run against direct
// execution on the routed chip, with fidelity sampling cross-checking
// both engines on every request.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "serve/fleet.hpp"
#include "serve/sweep_driver.hpp"

namespace chainnn::serve {
namespace {

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

TEST(Fleet, SpreadsIdenticalRequestsAcrossChips) {
  FleetOptions fo;
  fo.threads_per_chip = 1;
  Fleet fleet(fo);
  ASSERT_EQ(fleet.chips().size(), 3u);

  const nn::NetworkModel net = tiny_net();
  // Gate every execution until all nine requests are routed: no request
  // completes (and retires backlog) mid-submission, so the placement
  // sequence is a pure function of the modelled backlogs and the test
  // is independent of host timing.
  std::promise<void> open_gate;
  std::shared_future<void> gate = open_gate.get_future().share();
  RequestOptions gated;
  gated.weight_init = [gate](std::int64_t, Tensor<std::int16_t>& kernels) {
    gate.wait();
    Rng rng(7);
    kernels.fill_random(rng, -16, 16);
  };
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 9; ++i)
    futures.push_back(fleet.submit(net, /*batch=*/1, gated));
  open_gate.set_value();
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_FALSE(r.chip.empty());
    EXPECT_GT(r.modelled_seconds, 0.0);
  }
  fleet.wait_idle();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 9);
  EXPECT_EQ(stats.completed, 9);
  EXPECT_EQ(stats.failed, 0);
  // Identical requests + modelled backlog => round-robin-like spread:
  // every chip sees work (one chip serving all 9 would mean the backlog
  // term is being ignored).
  int chips_used = 0;
  for (const FleetChipStats& chip : stats.chips) {
    EXPECT_EQ(chip.routed, chip.server.submitted);
    if (chip.routed > 0) ++chips_used;
  }
  EXPECT_EQ(chips_used, 3);
  // All backlog retired once idle; cumulative busy time remains.
  for (const FleetChipStats& chip : stats.chips) {
    EXPECT_NEAR(chip.backlog_seconds, 0.0, 1e-12);
    if (chip.routed > 0) EXPECT_GT(chip.dispatched_seconds, 0.0);
  }
  EXPECT_GT(stats.modelled_makespan_seconds(), 0.0);
  // One shared cache fleet-wide: later chips hit on earlier chips' plans
  // only when shapes coincide; at minimum the per-chip second requests
  // hit. Entries cover (2 layers) x (3 arrays).
  EXPECT_GT(stats.plan_cache.hits, 0u);
}

TEST(Fleet, RoutedTraceBeatsBestSingleChip) {
  // A mixed trace over the default heterogeneous fleet: LeNet/2 and
  // CIFAR/2 proxies, batches 1/2/4, tier 1 on every fourth request and a
  // generous deadline on every other. Layer 0 of every request waits at a
  // gate until all are routed, so no request retires backlog mid-trace
  // and placement is a pure function of the closed forms.
  FleetOptions fo;
  fo.threads_per_chip = 1;
  fo.preemption = true;
  Fleet fleet(fo);
  const nn::NetworkModel lenet = channel_reduced_proxy(nn::lenet_mnist(), 2);
  const nn::NetworkModel cifar = channel_reduced_proxy(nn::cifar10_quick(), 2);

  constexpr std::int64_t kRequests = 24;
  std::promise<void> open_gate;
  std::shared_future<void> gate = open_gate.get_future().share();
  std::vector<FleetTraceEntry> trace;
  for (std::int64_t i = 0; i < kRequests; ++i) {
    FleetTraceEntry e;
    e.net = (i % 3 == 2) ? &cifar : &lenet;
    e.batch = std::int64_t{1} << (i % 3);
    if (i % 4 == 0) e.options.priority = 1;
    if (i % 2 == 1) e.options.deadline_ms = 600e3;
    e.options.weight_init = [gate](std::int64_t layer,
                                   Tensor<std::int16_t>& kernels) {
      if (layer == 0) gate.wait();
      Rng rng(7);
      kernels.fill_random(rng, -16, 16);
    };
    trace.push_back(e);
  }
  auto routed = std::async(std::launch::async,
                           [&] { return run_fleet_trace(fleet, trace); });
  // Open the gate once every request is routed, or once the trace threw.
  while (fleet.stats().submitted < kRequests &&
         routed.wait_for(std::chrono::milliseconds(1)) !=
             std::future_status::ready) {
  }
  open_gate.set_value();
  const FleetTraceReport report = routed.get();

  EXPECT_EQ(report.completed, kRequests);
  // The routed makespan (the busiest chip) beats the best chip serving
  // the whole trace alone...
  EXPECT_GT(report.modelled_speedup(), 1.0);
  // ...and stays within 25% of a split in proportion to each chip's
  // speed on the whole trace, which would finish in 1 / sum_c(1 / T_c).
  double trace_rate = 0.0;
  for (const double seconds : report.single_chip_seconds)
    trace_rate += 1.0 / seconds;
  EXPECT_LE(report.fleet_makespan_seconds(), 1.25 / trace_rate);
  EXPECT_EQ(fleet.stats().failed, 0);
}

TEST(Fleet, DuplicateChipNamesAreRefused) {
  // Results, /metrics and recovery name a chip by ChipSpec::name. Two
  // chips named "x" would have a trace rollup credit each request to
  // both, the scrape emit one series twice, and a replay pin itself to
  // whichever comes first, so the fleet refuses them.
  FleetOptions fo;
  fo.chips = {ChipSpec{"x", {}, {}}, ChipSpec{"x", {}, {}}};
  EXPECT_THROW({ Fleet fleet(fo); }, std::logic_error);
  fo.chips[1].name = "y";
  EXPECT_NO_THROW({ Fleet fleet(fo); });
}

TEST(Fleet, GatedRequestOnEveryChipRunsAtOnce) {
  // Each chip runs on workers of its own, so a request parked on a user
  // hook holds up no other chip: with one worker per chip, one gated
  // request per chip must all reach the gate before it opens, however
  // few cores the host has.
  FleetOptions fo;
  fo.threads_per_chip = 1;
  // Three identical chips, so identical requests spread one per chip.
  for (const char* name : {"chip0", "chip1", "chip2"}) {
    ChipSpec chip = default_fleet_chips().front();
    chip.name = name;
    fo.chips.push_back(chip);
  }
  Fleet fleet(fo);
  const std::size_t chips = fleet.chips().size();
  ASSERT_EQ(chips, 3u);

  const nn::NetworkModel net = tiny_net();
  std::latch at_gate(static_cast<std::ptrdiff_t>(chips));
  std::promise<void> open_gate;
  std::shared_future<void> gate = open_gate.get_future().share();
  RequestOptions gated;
  gated.weight_init = [&at_gate, gate](std::int64_t layer,
                                       Tensor<std::int16_t>& kernels) {
    if (layer == 0) {
      at_gate.count_down();
      gate.wait();
    }
    Rng rng(7);
    kernels.fill_random(rng, -16, 16);
  };
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t i = 0; i < chips; ++i)
    futures.push_back(fleet.submit(net, /*batch=*/1, gated));
  // Identical requests spread one per chip (nothing retires while they
  // are gated); wait at the gate only once that holds.
  bool one_per_chip = true;
  for (const FleetChipStats& chip : fleet.stats().chips)
    one_per_chip = one_per_chip && chip.routed == 1;
  EXPECT_TRUE(one_per_chip);
  if (one_per_chip) at_gate.wait();  // hangs if a chip waits on another's
  open_gate.set_value();
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
}

TEST(Fleet, EachChipRunsItsRequestsOnItsOwnThread) {
  // With one worker per chip, every request a chip runs runs on that
  // chip's one thread, and no two chips share a thread.
  FleetOptions fo;
  fo.threads_per_chip = 1;
  Fleet fleet(fo);
  const nn::NetworkModel net = tiny_net();

  constexpr int kRequests = 9;
  std::mutex mu;
  std::vector<std::thread::id> ran_on(kRequests);
  // Gated until all nine are routed, so they spread over every chip (as
  // in SpreadsIdenticalRequestsAcrossChips).
  std::promise<void> open_gate;
  std::shared_future<void> gate = open_gate.get_future().share();
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    RequestOptions ro;
    ro.weight_init = [&mu, &ran_on, gate, i](std::int64_t layer,
                                             Tensor<std::int16_t>& kernels) {
      if (layer == 0) {
        gate.wait();
        std::lock_guard<std::mutex> lock(mu);
        ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
      }
      Rng rng(7);
      kernels.fill_random(rng, -16, 16);
    };
    futures.push_back(fleet.submit(net, /*batch=*/1, ro));
  }
  open_gate.set_value();

  std::map<std::string, std::set<std::thread::id>> threads_of_chip;
  for (int i = 0; i < kRequests; ++i) {
    const InferenceResult r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    std::lock_guard<std::mutex> lock(mu);
    threads_of_chip[r.chip].insert(ran_on[static_cast<std::size_t>(i)]);
  }
  ASSERT_EQ(threads_of_chip.size(), fleet.chips().size());
  std::set<std::thread::id> all;
  for (const auto& [chip, ids] : threads_of_chip) {
    EXPECT_EQ(ids.size(), 1u) << chip << " ran on more than one thread";
    all.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(all.size(), threads_of_chip.size()) << "two chips share a thread";
}

TEST(Fleet, FleetVsDirectBitIdentityUnderFullFidelitySampling) {
  FleetOptions fo;
  fo.fidelity_sample_every_n = 1;  // cross-check every request
  Fleet fleet(fo);
  const nn::NetworkModel net = tiny_net();

  Tensor<std::int16_t> input(Shape{2, 2, 8, 8});
  Rng rng(1234);
  input.fill_random(rng, -64, 64);

  const InferenceResult r = fleet.submit(net, input, {}).get();
  ASSERT_EQ(r.status, RequestStatus::kOk);
  EXPECT_TRUE(r.fidelity.sampled);
  EXPECT_FALSE(r.fidelity.diverged) << r.fidelity.detail;

  // Replay directly (no fleet, no server) on the routed chip's exact
  // configuration: routing must only have chosen *where* the request
  // ran, never *what* it computed.
  const ChipSpec* routed = nullptr;
  for (const ChipSpec& chip : fleet.chips())
    if (chip.name == r.chip) routed = &chip;
  ASSERT_NE(routed, nullptr) << "unknown chip " << r.chip;

  chain::AcceleratorConfig cfg = analytical_accelerator_config();
  cfg.array = routed->array;
  cfg.memory = routed->memory;
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = false;
  const chain::NetworkRunResult direct = runner.run(net, input, ro);

  std::string why;
  EXPECT_TRUE(network_runs_identical(r.run, direct, &why)) << why;

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.fidelity_samples, 1);
  EXPECT_EQ(stats.fidelity_divergences, 0);
}

TEST(Fleet, PastDeadlineRequestRetiresItsBacklog) {
  FleetOptions fo;
  fo.threads_per_chip = 1;
  Fleet fleet(fo);
  const nn::NetworkModel net = tiny_net();

  RequestOptions late;
  late.deadline_ms = -1.0;
  const InferenceResult r = fleet.submit(net, 1, late).get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  fleet.wait_idle();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 0);
  // The cancelled request's modelled seconds must not leak into the
  // backlog, or the router would permanently under-load that chip.
  for (const FleetChipStats& chip : stats.chips)
    EXPECT_NEAR(chip.backlog_seconds, 0.0, 1e-12);
}

// A refused request must not have been charged to any chip: a leaked
// dispatch would permanently skew placement away from the chip it
// landed on.
void expect_router_untouched(const Fleet& fleet) {
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 0);
  for (const FleetChipStats& chip : stats.chips) {
    EXPECT_EQ(chip.routed, 0) << chip.name;
    EXPECT_NEAR(chip.backlog_seconds, 0.0, 1e-12) << chip.name;
    EXPECT_NEAR(chip.dispatched_seconds, 0.0, 1e-12) << chip.name;
  }
}

TEST(Fleet, RejectedSubmitLeavesRouterUntouched) {
  {
    SCOPED_TRACE("refused before routing");
    FleetOptions fo;
    fo.threads_per_chip = 1;
    Fleet fleet(fo);
    EXPECT_THROW((void)fleet.submit(tiny_net(), /*batch=*/0),
                 std::logic_error);
    expect_router_untouched(fleet);
  }
  {
    // Routed and charged, then the SUBMIT append fails: the journal
    // cannot grow past its header (the file-size limit makes write()
    // fail with EFBIG once SIGXFSZ is ignored).
    SCOPED_TRACE("journal append fails after routing");
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("chainnn_fleet_test_" + std::to_string(::getpid()) + ".jrnl"))
            .string();
    FleetOptions fo;
    fo.threads_per_chip = 1;
    fo.journal = std::make_shared<Journal>(JournalOptions{path, 1});
    Fleet fleet(fo);

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(std::filesystem::file_size(path));
    const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    EXPECT_THROW((void)fleet.submit(nn::lenet_mnist(), 1), JournalError);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, saved_handler);

    expect_router_untouched(fleet);
    std::filesystem::remove(path);
  }
}

TEST(Fleet, ZeroPoolStrideIsRefusedAtSubmit) {
  // Routing resolves the pooled geometry of every layer; a pool stride
  // of 0 used to divide by zero there and kill the process (SIGFPE). It
  // is refused at submit, before anything is charged or enqueued.
  FleetOptions fo;
  fo.threads_per_chip = 1;
  Fleet fleet(fo);
  RequestOptions opts;
  opts.inter_layer.resize(1);
  opts.inter_layer[0].pool = true;
  opts.inter_layer[0].pool_params = nn::PoolParams{2, 0, 0};
  EXPECT_THROW((void)fleet.submit(tiny_net(), 1, opts), std::logic_error);
  expect_router_untouched(fleet);
}

TEST(Fleet, MismatchedChannelsAreRefusedAtSubmit) {
  // NetworkRunner refuses channels that do not chain, but only once the
  // request runs; by then the chip was charged and a journaled fleet has
  // logged the request. Both mismatches are refused at submit instead.
  FleetOptions fo;
  fo.threads_per_chip = 1;
  {
    SCOPED_TRACE("layer 2 expects 4 channels, layer 1 emits 3");
    Fleet fleet(fo);
    nn::NetworkModel net = tiny_net();
    net.conv_layers[1].in_channels = 4;
    EXPECT_THROW((void)fleet.submit(net, 1), std::logic_error);
    expect_router_untouched(fleet);
  }
  {
    SCOPED_TRACE("a 5-channel input to a 2-channel first layer");
    Fleet fleet(fo);
    EXPECT_THROW(
        (void)fleet.submit(tiny_net(), Tensor<std::int16_t>(Shape{1, 5, 8, 8})),
        std::logic_error);
    expect_router_untouched(fleet);
  }
}

TEST(Fleet, FailedCompleteAppendFailsOnlyItsRequest) {
  // The chip executor journals COMPLETE before the future resolves. When
  // that append fails, the request fails with the journal's error, its
  // backlog is still retired, and the drain survives to serve the next
  // request.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("chainnn_fleet_complete_" + std::to_string(::getpid()) + ".jrnl"))
          .string();
  ChipSpec only;
  only.name = "solo";
  FleetOptions fo;
  fo.chips = {only};
  fo.threads_per_chip = 1;
  fo.journal = std::make_shared<Journal>(JournalOptions{path, 1});
  Fleet fleet(fo);
  const nn::NetworkModel net = tiny_net();

  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> a_gate = release_a.get_future().share();
  RequestOptions a;
  a.weight_init = [&](std::int64_t layer, Tensor<std::int16_t>& k) {
    if (layer == 0) {
      a_started.set_value();
      a_gate.wait();
    }
    Rng rng(7);
    k.fill_random(rng, -16, 16);
  };
  auto fa = fleet.submit(net, 1, a);
  a_started.get_future().wait();

  // A's SUBMIT is on the log; cap the file there so its COMPLETE append
  // fails (write() returns EFBIG once SIGXFSZ is ignored).
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(std::filesystem::file_size(path));
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  release_a.set_value();
  EXPECT_THROW((void)fa.get(), JournalError);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_EQ(fleet.submit(net, 1, {}).get().status, RequestStatus::kOk);
  fleet.wait_idle();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.completed + stats.cancelled + stats.failed,
            stats.submitted);
  EXPECT_NEAR(stats.chips[0].backlog_seconds, 0.0, 1e-12);
  std::filesystem::remove(path);
}

TEST(Fleet, PlanRouteMatchesSubmitPlacement) {
  FleetOptions fo;
  Fleet fleet(fo);
  const nn::NetworkModel net = tiny_net();

  const RouteDecision planned = fleet.plan_route(net, /*batch=*/1);
  const InferenceResult r = fleet.submit(net, 1, {}).get();
  EXPECT_EQ(r.chip, planned.chip_name);
  EXPECT_DOUBLE_EQ(r.modelled_seconds, planned.request_seconds);
  fleet.wait_idle();
}

TEST(Fleet, PreemptedThenCancelledIsNotDoubleRetracted) {
  // Regression for the preemption path of the backlog accounting: a
  // preemption retires the completed layers' modelled seconds
  // immediately, and the terminal hook retires only the remainder. A
  // request that is preempted and then cancelled before its resume must
  // retire exactly its modelled seconds once — retiring them twice would
  // (via the clamp in Router::complete) eat a *different* request's
  // backlog and permanently skew placement.
  ChipSpec only;
  only.name = "solo";
  FleetOptions fo;
  fo.chips = {only};  // single chip: placement is forced, timing is not
  fo.threads_per_chip = 1;
  fo.preemption = true;
  Fleet fleet(fo);
  const nn::NetworkModel net = tiny_net();
  const double modelled = fleet.plan_route(net, 1).request_seconds;
  ASSERT_GT(modelled, 0.0);

  std::promise<void> a_started, b_started;
  std::promise<void> release_a, release_b;
  std::shared_future<void> a_gate = release_a.get_future().share();
  std::shared_future<void> b_gate = release_b.get_future().share();
  std::atomic<bool> a_gated{false}, b_gated{false};
  auto token_a = std::make_shared<std::atomic<bool>>(false);

  // A (tier 0): blocks in layer 0 until C and B are queued, then gets
  // preempted by C at the layer-1 boundary.
  RequestOptions a;
  a.cancel = token_a;
  a.weight_init = [&](std::int64_t layer, Tensor<std::int16_t>& k) {
    if (layer == 0 && !a_gated.exchange(true)) {
      a_started.set_value();
      a_gate.wait();
    }
    Rng rng(7);
    k.fill_random(rng, -16, 16);
  };
  auto fa = fleet.submit(net, 1, a);
  a_started.get_future().wait();

  // C (tier 1): the preemptor; its weight_init cancels A, so A is
  // cancelled while checkpointed — before it can resume.
  RequestOptions c;
  c.priority = 1;
  c.weight_init = [&](std::int64_t, Tensor<std::int16_t>& k) {
    token_a->store(true);
    Rng rng(8);
    k.fill_random(rng, -16, 16);
  };
  auto fc = fleet.submit(net, 1, c);

  // B (tier 0): runs after A's cancellation and blocks so the test can
  // observe the backlog mid-flight.
  RequestOptions b;
  b.weight_init = [&](std::int64_t layer, Tensor<std::int16_t>& k) {
    if (layer == 0 && !b_gated.exchange(true)) {
      b_started.set_value();
      b_gate.wait();
    }
    Rng rng(9);
    k.fill_random(rng, -16, 16);
  };
  auto fb = fleet.submit(net, 1, b);
  release_a.set_value();

  const InferenceResult ra = fa.get();
  EXPECT_EQ(ra.status, RequestStatus::kCancelled);
  EXPECT_EQ(ra.preemptions, 1);
  EXPECT_EQ(ra.completed_layers, 1);  // the checkpointed layer counts
  (void)fc.get();

  // B is the only live request: with A (preempted, then cancelled) and C
  // retired exactly once each, the chip backlog must be exactly B's
  // modelled seconds. A double retraction of A would have eaten into it.
  b_started.get_future().wait();
  const FleetStats mid = fleet.stats();
  EXPECT_NEAR(mid.chips[0].backlog_seconds, modelled, 1e-12);

  release_b.set_value();
  (void)fb.get();
  fleet.wait_idle();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.preemptions, 1);
  EXPECT_EQ(stats.resumes, 0);  // cancelled while checkpointed
  EXPECT_NEAR(stats.chips[0].backlog_seconds, 0.0, 1e-12);
}

TEST(Fleet, AdmissionRejectsDeadlineInfeasibleOnEveryChip) {
  FleetOptions fo;
  fo.threads_per_chip = 1;
  Fleet fleet(fo);
  const nn::NetworkModel net = tiny_net();

  // Infeasible everywhere: the modelled chain seconds alone dwarf a
  // 1 ns deadline. With admission on, the future resolves kRejected at
  // submit; nothing reaches any server and nothing is charged.
  RequestOptions doomed;
  doomed.deadline_ms = 1e-6;
  doomed.admission = true;
  const InferenceResult r = fleet.submit(net, 1, doomed).get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_EQ(r.completed_layers, 0);
  EXPECT_TRUE(r.run.layers.empty());
  EXPECT_GT(r.modelled_seconds, 0.0);  // the infeasible estimate, echoed

  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.submitted, 0);  // never reached a chip server
  for (const FleetChipStats& chip : stats.chips) {
    EXPECT_EQ(chip.routed, 0);
    EXPECT_NEAR(chip.backlog_seconds, 0.0, 1e-12);
    EXPECT_NEAR(chip.dispatched_seconds, 0.0, 1e-12);
  }

  // The same deadline without admission executes the old path: picked up
  // past-deadline, resolved kCancelled, counted as expired.
  RequestOptions late = doomed;
  late.admission = false;
  const InferenceResult rl = fleet.submit(net, 1, late).get();
  EXPECT_EQ(rl.status, RequestStatus::kCancelled);
  EXPECT_TRUE(rl.deadline_expired);
  fleet.wait_idle();
  stats = fleet.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.rejected, 1);

  // A feasible deadline passes admission and runs normally.
  RequestOptions fine;
  fine.deadline_ms = 600e3;
  fine.admission = true;
  const InferenceResult rf = fleet.submit(net, 1, fine).get();
  EXPECT_EQ(rf.status, RequestStatus::kOk);
  fleet.wait_idle();
  stats = fleet.stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 1);
  for (const FleetChipStats& chip : stats.chips)
    EXPECT_NEAR(chip.backlog_seconds, 0.0, 1e-12);
}

}  // namespace
}  // namespace chainnn::serve
