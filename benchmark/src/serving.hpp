// Serving-side helpers shared by the workloads that submit requests:
// the served networks with their standard pooling placements, seeded
// input pools, direct NetworkRunner references, and a single-thread load
// generator that sends requests in bursts and observes completions by
// polling futures.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "serve/fleet.hpp"
#include "serve/inference_server.hpp"

namespace bench {

namespace chain = chainnn::chain;
namespace nn = chainnn::nn;
namespace serve = chainnn::serve;
using chainnn::Rng;
using chainnn::Tensor;

// A network as served: a channel-reduced proxy of a zoo model plus the
// pooling placements that make the flowing activations shrink the way
// the real network does (so executed MACs are the network's, not the
// unpooled worst case).
struct ServedModel {
  nn::NetworkModel net;
  std::vector<chain::InterLayerOp> inter_layer;
};

[[nodiscard]] ServedModel served_lenet(std::int64_t scale);
[[nodiscard]] ServedModel served_cifar10(std::int64_t scale);
[[nodiscard]] ServedModel served_alexnet(std::int64_t scale);
[[nodiscard]] ServedModel served_vgg16(std::int64_t scale);
// A proxy without pooling — the shape the gateway serves by name.
[[nodiscard]] ServedModel served_unpooled(const nn::NetworkModel& net,
                                          std::int64_t scale);

[[nodiscard]] Tensor<std::int16_t> random_input(const nn::NetworkModel& net,
                                                std::int64_t batch, Rng& rng);

// What a direct, unserved NetworkRunner::run produces for one input on
// the paper's 576-PE chip. Final activations do not depend on the chip,
// so one reference per input checks a request served anywhere.
struct Reference {
  std::uint64_t digest = 0;
  std::int64_t cycles = 0;
  std::int64_t macs = 0;  // summed over the executed layers
  double result_bytes = 0.0;
  std::string error;  // non-empty when the reference run threw
};
struct ReferenceJob {
  const ServedModel* model = nullptr;
  const Tensor<std::int16_t>* input = nullptr;
};
// Runs every job, on every CPU (run_on_every_cpu).
[[nodiscard]] std::vector<Reference> direct_references(
    const std::vector<ReferenceJob>& jobs);

// The accelerator configuration of the fleet chip named `chip`, as a
// direct run on that chip would use it.
[[nodiscard]] chain::AcceleratorConfig chip_config(const serve::Fleet& fleet,
                                                   const std::string& chip);

// Bytes a resolved result keeps alive: every layer's accumulators,
// ofmaps and plan copy plus the final activations.
[[nodiscard]] double result_bytes(const chain::NetworkRunResult& run);

// A request attribute drawn in shuffled rounds: every round holds each
// value exactly as often as its count says, so a run's mix has the stated
// shares whatever the seed. With independent draws the shares wander by a
// percent or two between runs, and a latency median that sits between two
// request classes moves with them.
template <typename T>
class Deck {
 public:
  Deck(std::initializer_list<std::pair<T, int>> counts) {
    for (const auto& [value, count] : counts)
      values_.insert(values_.end(), static_cast<std::size_t>(count), value);
    next_ = values_.size();
  }

  [[nodiscard]] T draw(Rng& rng) {
    if (next_ == values_.size()) {
      for (std::size_t i = values_.size() - 1; i > 0; --i)
        std::swap(values_[i],
                  values_[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(i)))]);
      next_ = 0;
    }
    return values_[next_++];
  }

 private:
  std::vector<T> values_;
  std::size_t next_ = 0;
};

// One request of a workload's seeded sequence.
struct Request {
  std::int64_t seq = 0;
  int model = 0;  // index into the workload's ServedModel list
  std::int64_t batch = 1;
  int input = 0;  // index into the (model, batch) input pool
  std::int32_t priority = 0;
  std::optional<double> deadline_ms;
};

// A resolved request as the load generator observed it. The run itself is
// dropped on observation; only its digest and sizes are kept.
struct Completed {
  Request req;
  int phase = 0;
  std::int64_t burst = 0;  // the burst it was sent in
  Clock::time_point due, submit_begin, submit_end, observed;
  bool threw = false;
  std::string error;
  serve::RequestStatus status = serve::RequestStatus::kOk;
  bool deadline_missed = false;
  double queue_ms = 0.0;
  double wall_ms = 0.0;
  std::string chip;
  std::uint64_t digest = 0;
  std::int64_t macs = 0;
  double result_bytes = 0.0;

  [[nodiscard]] bool ok() const {
    return !threw && status == serve::RequestStatus::kOk;
  }
  // Observed completion minus submit return, queueing and execution.
  [[nodiscard]] double completion_us() const {
    return 1e3 * (ms_between(submit_end, observed) - queue_ms - wall_ms);
  }
};

struct Submitted {
  std::future<serve::InferenceResult> future;
  Clock::time_point begin, end;  // around the submit call alone
};

// Single-thread load generator: the one generator thread of a serving
// workload. Submits come from `submit`, the request sequence from `next`.
class LoadGenerator {
 public:
  LoadGenerator(std::function<Submitted(const Request&)> submit,
                std::function<Request()> next)
      : submit_(std::move(submit)), next_(std::move(next)) {}

  // Sends `n` requests back to back, all due now, and polls until every
  // one has resolved. A burst of one is a closed loop of one client.
  void burst(int n, int phase);

  // A deque grows without copying, so the benchmark's own records add
  // no reallocation peaks to the run's peak RSS.
  std::deque<Completed> done;

 private:
  struct Pending {
    Request req;
    Clock::time_point due;
    Submitted sub;
  };
  void poll(int phase);

  std::function<Submitted(const Request&)> submit_;
  std::function<Request()> next_;
  std::vector<Pending> pending_;
  std::int64_t bursts_ = 0;
};

// Seeded inputs of a workload that submits tensors directly: `per_key`
// inputs for every (model, batch) it sends, and once the windows are
// over, the direct reference of each.
class InputPool {
 public:
  InputPool(const std::vector<ServedModel>* models,
            const std::vector<std::pair<int, std::int64_t>>& keys,
            int per_key, Rng& rng);

  [[nodiscard]] const Tensor<std::int16_t>& input(const Request& r) const;
  void compute_references();
  [[nodiscard]] const Reference& reference(const Request& r) const;
  // Completed kOk requests whose digest differs from their reference.
  [[nodiscard]] std::int64_t mismatches(
      const std::deque<Completed>& done) const;
  // Simulated cycles summed over every reference — shape-determined, so
  // the same for every seed and for any change that leaves the
  // simulation alone.
  [[nodiscard]] std::int64_t reference_cycles() const;

 private:
  using Key = std::pair<int, std::int64_t>;
  const std::vector<ServedModel>* models_;
  std::map<Key, std::vector<Tensor<std::int16_t>>> inputs_;
  std::map<Key, std::vector<Reference>> refs_;
};

// Plan-cache, arena, preemption and queue counters of a server or fleet.
struct ServeCounters {
  std::int64_t completed = 0;
  std::int64_t preemptions = 0;
  std::int64_t peak_queue_depth = 0;
  serve::PlanCacheStats plan_cache;
  chainnn::ArenaStats arena;
};
[[nodiscard]] ServeCounters counters_of(const serve::ServerStats& s);
[[nodiscard]] ServeCounters counters_of(const std::vector<serve::ServerStats>& chips,
                                        const serve::PlanCacheStats& shared_cache);

// serve.* and tensor.* per-layer metrics from the counters' change over
// the timed windows.
void report_counter_layers(const ServeCounters& before,
                           const ServeCounters& after, Report& report);

// One request as Fleet::plan_route sees it.
struct RouteProbe {
  const nn::NetworkModel* net = nullptr;
  std::int64_t batch = 1;
  std::vector<chain::InterLayerOp> inter_layer;
};
// Fleet::plan_route timings of `probes`, in order, on a fresh fleet built
// from `options` (journal off): a twin of the measured fleet, so timing
// routes leaves the measured fleet's plan cache counters and its timed
// windows alone. Every probe is routed once untimed first, so the twin's
// plan cache holds what the measured fleet's did.
[[nodiscard]] std::vector<double> twin_route_us(
    serve::FleetOptions options, const std::vector<RouteProbe>& probes);

// serve.* and chain.* per-layer metrics from the requests a direct-submit
// workload observed in its timed windows, their plan_route timings (empty
// without a router) and its served throughput.
void report_request_layers(const std::vector<const Completed*>& measured,
                           const std::vector<double>& route_us,
                           double throughput, Report& report);

// request → {submit, queue, exec} spans; queue and exec are placed from
// the result's queue_ms / wall_ms at the submit-return anchor.
void trace_requests(const std::vector<const Completed*>& measured,
                    Trace& trace);

}  // namespace bench
