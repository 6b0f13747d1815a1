// Randomized scheduling property harness for the preemptive,
// admission-controlled fleet.
//
// Seeded SplitMix64-derived traces (common/rng.hpp expands every seed
// through SplitMix64) of mixed priority / deadline / cancellation /
// admission requests are replayed against a single-threaded oracle
// scheduler, and the invariants that make the scheduler trustworthy are
// asserted on every trace:
//
//   * no lost or duplicated futures — every submitted request resolves
//     exactly once with a terminal status;
//   * every terminal status is accounted exactly once in ServerStats /
//     FleetStats (completed + cancelled + failed == submitted per chip,
//     plus fleet-level rejected covering the full trace);
//   * a preempted-and-resumed request's result is bit-identical to the
//     same request executed undisturbed (ofmaps, cycles, traffic);
//   * admission-rejected requests never execute and charge no backlog;
//   * all modelled backlog is retired exactly once (zero once idle —
//     double retirement would go negative-then-clamped, under-retirement
//     would leave residue).
//
// The traces only use features with *deterministic* terminal outcomes
// (pre-set cancel tokens, deadlines either already past or absurdly
// generous), so the oracle can predict every status single-threadedly
// even though the real fleet schedules across worker threads. Preemption
// changes interleavings, never outcomes — exactly the property under
// test.
//
// Seeds: three fixed seeds run in tier-1. CI's sanitize workflow sets
// CHAINNN_SCHED_ROTATE to rotate fresh seed triples every run (with
// --gtest_repeat each repetition advances the rotation); every seed is
// printed as "[sched-seed] N". To reproduce a logged failure, export
// CHAINNN_SCHED_SEED=<logged N>: every test then runs exactly that one
// seed, independent of test order, filters or repetition count.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "property_seeds.hpp"
#include "serve/fleet.hpp"

namespace chainnn::serve {
namespace {

nn::NetworkModel tiny_net(int layers) {
  nn::NetworkModel net;
  net.name = "tiny" + std::to_string(layers);
  std::int64_t channels = 2;
  for (int i = 0; i < layers; ++i) {
    nn::ConvLayerParams l;
    l.name = "c" + std::to_string(i + 1);
    l.in_channels = channels;
    l.out_channels = (i + 1 == layers) ? 2 : 3;
    l.in_height = l.in_width = 8;
    l.kernel = 3;
    l.pad = 1;
    l.validate();
    channels = l.out_channels;
    net.conv_layers.push_back(l);
  }
  return net;
}

Tensor<std::int16_t> request_input(const nn::NetworkModel& net,
                                   std::int64_t batch, std::uint64_t seed) {
  const nn::ConvLayerParams& first = net.conv_layers.front();
  Tensor<std::int16_t> input(
      Shape{batch, first.in_channels, first.in_height, first.in_width});
  Rng rng(seed);
  input.fill_random(rng, -64, 64);
  return input;
}

// The chip configuration a fleet request actually executed under,
// recovered from the result's chip name.
chain::AcceleratorConfig routed_chip_config(const Fleet& fleet,
                                            const std::string& chip_name) {
  for (const ChipSpec& chip : fleet.chips()) {
    if (chip.name != chip_name) continue;
    chain::AcceleratorConfig cfg = analytical_accelerator_config();
    cfg.array = chip.array;
    cfg.memory = chip.memory;
    return cfg;
  }
  ADD_FAILURE() << "unknown chip " << chip_name;
  return analytical_accelerator_config();
}

// Reference execution of one request, undisturbed: what the fleet must
// have computed regardless of preemptions, queue order or worker
// interleaving.
chain::NetworkRunResult direct_run(
    const nn::NetworkModel& net, const Tensor<std::int16_t>& input,
    const chain::AcceleratorConfig& cfg,
    const std::function<void(std::int64_t, Tensor<std::int16_t>&)>&
        weight_init) {
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = false;
  ro.weight_init = weight_init;
  return runner.run(net, input, ro);
}

// --- the single-threaded oracle scheduler ----------------------------------

// One request of a generated trace, with everything the oracle needs to
// predict and verify its terminal state.
struct TraceRequest {
  const nn::NetworkModel* net = nullptr;
  Tensor<std::int16_t> input;
  RequestOptions options;
  RequestStatus expected = RequestStatus::kOk;
  bool expected_deadline_expired = false;
};

// Replays the trace single-threadedly (submission order — the oracle
// needs no queue: the deterministic features decide each terminal status
// independently of scheduling) and tallies what the fleet counters must
// show afterwards.
struct OracleTally {
  std::int64_t ok = 0;
  std::int64_t cancelled = 0;
  std::int64_t expired = 0;
  std::int64_t rejected = 0;
};

OracleTally oracle_schedule(std::vector<TraceRequest>& trace) {
  OracleTally tally;
  for (TraceRequest& r : trace) {
    const bool past_deadline =
        r.options.deadline_ms && *r.options.deadline_ms <= 0.0;
    const bool token_set =
        r.options.cancel &&
        r.options.cancel->load(std::memory_order_relaxed);
    if (r.options.admission && past_deadline) {
      // Admission control sizes the request against the modelled backlog
      // and closed-form chain seconds; a deadline at or before zero is
      // infeasible on every chip by definition.
      r.expected = RequestStatus::kRejected;
      ++tally.rejected;
    } else if (token_set || past_deadline) {
      r.expected = RequestStatus::kCancelled;
      r.expected_deadline_expired = past_deadline;
      ++tally.cancelled;
      if (past_deadline) ++tally.expired;
    } else {
      r.expected = RequestStatus::kOk;
      ++tally.ok;
    }
  }
  return tally;
}

// Submits the trace, drains the fleet, and asserts every harness
// invariant against the oracle's prediction.
void run_trace_and_assert_invariants(Fleet& fleet,
                                     std::vector<TraceRequest>& trace) {
  const OracleTally tally = oracle_schedule(trace);

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(trace.size());
  for (TraceRequest& r : trace)
    futures.push_back(fleet.submit(*r.net, r.input, r.options));

  // No lost futures: every one resolves (get() would throw or block
  // forever otherwise); no duplicated terminal states: each status is
  // observed exactly once per request and tallied here.
  OracleTally observed;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].valid());
    const InferenceResult r = futures[i].get();
    const TraceRequest& want = trace[i];
    EXPECT_EQ(r.status, want.expected) << "request " << i;
    // Exactly one terminal deadline classification per request: a
    // deadline is either missed (completed late, kOk) or expired
    // (cancelled in time's stead, kCancelled) — never both, and never
    // on the wrong status. These invariants pin the single-clock-sample
    // classification in the server: with independent re-samples at each
    // decision point, a request near its deadline could flip between
    // classes between the decision and its recording.
    EXPECT_FALSE(r.deadline_missed && r.deadline_expired) << "request " << i;
    if (r.deadline_missed)
      EXPECT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    if (r.deadline_expired)
      EXPECT_EQ(r.status, RequestStatus::kCancelled) << "request " << i;
    switch (r.status) {
      case RequestStatus::kOk: {
        ++observed.ok;
        // Bit-identity regardless of preemptions: the fleet's result
        // must equal the same request executed undisturbed on the chip
        // it was routed to.
        const chain::NetworkRunResult reference =
            direct_run(*want.net, want.input,
                       routed_chip_config(fleet, r.chip),
                       want.options.weight_init);
        std::string why;
        EXPECT_TRUE(network_runs_identical(r.run, reference, &why))
            << "request " << i << " (preemptions " << r.preemptions
            << "): " << why;
        EXPECT_EQ(r.completed_layers,
                  static_cast<std::int64_t>(want.net->conv_layers.size()));
        break;
      }
      case RequestStatus::kCancelled:
        ++observed.cancelled;
        if (r.deadline_expired) ++observed.expired;
        EXPECT_EQ(r.deadline_expired, want.expected_deadline_expired)
            << "request " << i;
        EXPECT_TRUE(r.run.layers.empty());
        break;
      case RequestStatus::kRejected:
        ++observed.rejected;
        // Rejected requests never execute: no layers, no chip server
        // involvement (checked in aggregate below).
        EXPECT_EQ(r.completed_layers, 0) << "request " << i;
        EXPECT_TRUE(r.run.layers.empty());
        EXPECT_FALSE(r.resumed);
        break;
      case RequestStatus::kFailed:
        ADD_FAILURE() << "request " << i << " failed";
        break;
    }
  }
  fleet.wait_idle();

  EXPECT_EQ(observed.ok, tally.ok);
  EXPECT_EQ(observed.cancelled, tally.cancelled);
  EXPECT_EQ(observed.expired, tally.expired);
  EXPECT_EQ(observed.rejected, tally.rejected);

  // Conservation: every terminal status accounted exactly once in the
  // stats, per chip and fleet-wide, with rejected requests never having
  // reached a server.
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted + stats.rejected,
            static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(stats.completed, tally.ok);
  EXPECT_EQ(stats.cancelled, tally.cancelled);
  EXPECT_EQ(stats.deadline_expired, tally.expired);
  EXPECT_EQ(stats.rejected, tally.rejected);
  EXPECT_EQ(stats.failed, 0);
  // The classification subsets hold in aggregate too: expirations are
  // cancellations, misses are completions.
  EXPECT_LE(stats.deadline_expired, stats.cancelled);
  EXPECT_LE(stats.deadline_misses, stats.completed);
  for (const FleetChipStats& chip : stats.chips) {
    EXPECT_EQ(chip.server.completed + chip.server.cancelled +
                  chip.server.failed,
              chip.server.submitted)
        << chip.name;
    // All backlog retired exactly once: double retirement would have
    // been clamped away mid-run and starved the comparison above; under
    // retirement leaves residue here.
    EXPECT_NEAR(chip.backlog_seconds, 0.0, 1e-9) << chip.name;
  }
  // Every preemption that resumed is counted on both sides; a trace
  // without mid-run cancellations resumes every checkpoint it takes.
  EXPECT_EQ(stats.resumes, stats.preemptions);
}

TEST(SchedProperties, RandomizedMixedTraceMatchesOracle) {
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net2 = tiny_net(2);
    const nn::NetworkModel net3 = tiny_net(3);

    FleetOptions fo;
    fo.threads_per_chip = 1;
    fo.preemption = true;
    Fleet fleet(fo);

    Rng rng(seed);
    std::vector<TraceRequest> trace;
    for (int i = 0; i < 18; ++i) {
      TraceRequest r;
      r.net = rng.uniform_int(0, 1) ? &net3 : &net2;
      const std::int64_t batch = rng.uniform_int(1, 2);
      r.input = request_input(*r.net, batch,
                              seed * 1000 + static_cast<std::uint64_t>(i));
      r.options.priority = static_cast<std::int32_t>(rng.uniform_int(0, 2));
      const std::int64_t deadline_class = rng.uniform_int(0, 9);
      if (deadline_class < 2) {
        r.options.deadline_ms = -1.0;  // already past at submit
      } else if (deadline_class < 4) {
        r.options.deadline_ms = 600e3;  // generous: never missed
      }
      if (r.options.deadline_ms && rng.uniform_int(0, 1))
        r.options.admission = true;
      if (rng.uniform_int(0, 9) == 0) {
        // Pre-set cancel token: dead on arrival, deterministically.
        r.options.cancel = std::make_shared<std::atomic<bool>>(true);
      }
      trace.push_back(std::move(r));
    }
    run_trace_and_assert_invariants(fleet, trace);
  }
}

TEST(SchedProperties, PreemptionBurstIsBitIdenticalToOracle) {
  // Engineered burst: one tier-0 victim per chip is held mid-layer-0
  // until six tier-2 requests are queued behind them, guaranteeing every
  // victim is preempted at its layer-1 boundary. The oracle (direct,
  // undisturbed execution) must match every result bit for bit, and the
  // preemption/resume counters must balance.
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net = tiny_net(3);

    // Three identical paper chips: every burst request's modelled seconds
    // are the same on each, so the earliest-finish tie-break round-robins
    // deterministically — victims land one per chip, urgents two per chip,
    // with no dependence on the chips' relative speeds.
    FleetOptions fo;
    for (const char* name : {"pe576-a", "pe576-b", "pe576-c"})
      fo.chips.push_back({name, {}, {}});
    fo.threads_per_chip = 1;
    fo.preemption = true;
    Fleet fleet(fo);
    const std::size_t num_chips = fleet.chips().size();
    ASSERT_EQ(num_chips, 3u);

    // Per-layer-pure weights, shared by the victims and the oracle.
    const auto weights = [seed](std::int64_t layer,
                                Tensor<std::int16_t>& k) {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(layer));
      k.fill_random(rng, -16, 16);
    };

    std::promise<void> open_gate;
    std::shared_future<void> gate = open_gate.get_future().share();
    std::vector<std::promise<void>> started(num_chips);
    std::vector<std::future<InferenceResult>> victims;
    std::vector<Tensor<std::int16_t>> victim_inputs;
    for (std::size_t v = 0; v < num_chips; ++v) {
      auto once = std::make_shared<std::atomic<bool>>(false);
      RequestOptions ro;
      std::promise<void>* my_started = &started[v];
      ro.weight_init = [gate, once, my_started, weights](
                           std::int64_t layer, Tensor<std::int16_t>& k) {
        if (layer == 0 && !once->exchange(true)) {
          my_started->set_value();
          gate.wait();
        }
        weights(layer, k);
      };
      victim_inputs.push_back(
          request_input(net, 1, seed * 77 + static_cast<std::uint64_t>(v)));
      victims.push_back(fleet.submit(net, victim_inputs.back(), ro));
    }
    // All three victims are mid-layer-0, one per chip, each pinning its
    // chip's only worker.
    for (std::promise<void>& p : started) p.get_future().wait();

    std::vector<std::future<InferenceResult>> urgent;
    std::vector<Tensor<std::int16_t>> urgent_inputs;
    for (int u = 0; u < 6; ++u) {
      RequestOptions ro;
      ro.priority = 2;
      urgent_inputs.push_back(
          request_input(net, 1, seed * 99 + static_cast<std::uint64_t>(u)));
      urgent.push_back(fleet.submit(net, urgent_inputs.back(), ro));
    }
    open_gate.set_value();

    for (std::size_t v = 0; v < victims.size(); ++v) {
      const InferenceResult r = victims[v].get();
      EXPECT_EQ(r.status, RequestStatus::kOk);
      EXPECT_GE(r.preemptions, 1) << "victim " << v;
      EXPECT_TRUE(r.resumed) << "victim " << v;
      const chain::NetworkRunResult reference =
          direct_run(net, victim_inputs[v],
                     routed_chip_config(fleet, r.chip), weights);
      std::string why;
      EXPECT_TRUE(network_runs_identical(r.run, reference, &why))
          << "victim " << v << ": " << why;
    }
    for (std::size_t u = 0; u < urgent.size(); ++u) {
      const InferenceResult r = urgent[u].get();
      EXPECT_EQ(r.status, RequestStatus::kOk);
      EXPECT_EQ(r.preemptions, 0) << "urgent " << u;  // top tier
      const chain::NetworkRunResult reference =
          direct_run(net, urgent_inputs[u],
                     routed_chip_config(fleet, r.chip), {});
      std::string why;
      EXPECT_TRUE(network_runs_identical(r.run, reference, &why))
          << "urgent " << u << ": " << why;
    }
    fleet.wait_idle();

    const FleetStats stats = fleet.stats();
    EXPECT_GE(stats.preemptions, 3);  // every victim yielded at least once
    EXPECT_EQ(stats.resumes, stats.preemptions);
    EXPECT_EQ(stats.completed, 9);
    EXPECT_EQ(stats.failed, 0);
    for (const FleetChipStats& chip : stats.chips)
      EXPECT_NEAR(chip.backlog_seconds, 0.0, 1e-9) << chip.name;
  }
}

TEST(SchedProperties, AdmissionNeverIncreasesMissedDeadlines) {
  // The same randomized deadline-laden trace replayed on two fleets —
  // admission off, then on. Off: every doomed request burns a worker
  // pickup and counts as a missed deadline (expired or completed-late).
  // On: every doomed request is rejected at submit and counts as
  // nothing. Admission must strictly reduce missed deadlines here, and
  // rejected requests must never execute.
  for (const std::uint64_t seed : property_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net2 = tiny_net(2);
    const nn::NetworkModel net3 = tiny_net(3);

    Rng rng(seed ^ 0xAD315510ull);
    struct Entry {
      const nn::NetworkModel* net;
      std::int64_t batch;
      bool doomed;
      std::int32_t priority;
    };
    std::vector<Entry> entries;
    std::int64_t doomed_count = 0;
    for (int i = 0; i < 12; ++i) {
      Entry e;
      e.net = rng.uniform_int(0, 1) ? &net3 : &net2;
      e.batch = rng.uniform_int(1, 2);
      e.priority = static_cast<std::int32_t>(rng.uniform_int(0, 1));
      e.doomed = rng.uniform_int(0, 2) == 0;  // ~1/3 infeasible
      if (e.doomed) ++doomed_count;
      entries.push_back(e);
    }
    if (doomed_count == 0) {  // the property needs at least one
      entries.front().doomed = true;
      doomed_count = 1;
    }

    const auto run_with_admission = [&](bool admission) {
      FleetOptions fo;
      fo.threads_per_chip = 1;
      fo.preemption = true;
      Fleet fleet(fo);
      std::vector<std::future<InferenceResult>> futures;
      for (const Entry& e : entries) {
        RequestOptions ro;
        ro.priority = e.priority;
        // Feasible requests get a generous deadline; doomed ones a
        // microscopic-but-positive one no chip can meet.
        ro.deadline_ms = e.doomed ? 1e-6 : 600e3;
        ro.admission = admission;
        futures.push_back(fleet.submit(*e.net, e.batch, ro));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const InferenceResult r = futures[i].get();
        if (entries[i].doomed && admission) {
          EXPECT_EQ(r.status, RequestStatus::kRejected) << "entry " << i;
          EXPECT_EQ(r.completed_layers, 0);
          EXPECT_TRUE(r.run.layers.empty());
        } else if (!entries[i].doomed) {
          EXPECT_EQ(r.status, RequestStatus::kOk) << "entry " << i;
        }
      }
      fleet.wait_idle();
      return fleet.stats();
    };

    const FleetStats off = run_with_admission(false);
    const FleetStats on = run_with_admission(true);

    EXPECT_EQ(off.rejected, 0);
    EXPECT_EQ(on.rejected, doomed_count);
    // Rejected requests never reached a chip server.
    EXPECT_EQ(on.submitted,
              static_cast<std::int64_t>(entries.size()) - doomed_count);
    // Every doomed request costs the admission-off fleet a missed
    // deadline one way or the other; admission-on misses none.
    EXPECT_GE(off.missed_deadlines(), doomed_count);
    EXPECT_EQ(on.missed_deadlines(), 0);
    EXPECT_LT(on.missed_deadlines(), off.missed_deadlines());
  }
}

}  // namespace
}  // namespace chainnn::serve
