#include "serve/inference_server.hpp"

#include <sstream>
#include <utility>

#include "serve/fleet.hpp"

namespace chainnn::serve {

bool network_runs_identical(const chain::NetworkRunResult& a,
                            const chain::NetworkRunResult& b,
                            std::string* why) {
  const auto fail = [why](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (a.layers.size() != b.layers.size())
    return fail("layer counts differ");
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& la = a.layers[i].run;
    const auto& lb = b.layers[i].run;
    const std::string name = a.layers[i].layer.name;
    if (!(la.ofmaps == lb.ofmaps))
      return fail("ofmaps differ at layer " + name);
    // A run keeps no accumulators, but each narrowing error is
    // acc·2^-f − raw·2^-o, so these stats fingerprint the accumulators
    // behind identical ofmaps.
    if (!(la.narrowing == lb.narrowing))
      return fail("narrowing stats differ at layer " + name);
    if (la.stats.total_cycles() != lb.stats.total_cycles()) {
      std::ostringstream os;
      os << "cycles differ at layer " << name << ": "
         << la.stats.total_cycles() << " vs " << lb.stats.total_cycles();
      return fail(os.str());
    }
    if (!(la.traffic == lb.traffic))
      return fail("traffic differs at layer " + name);
    // Power is a pure function of the plan, so the engines must agree on
    // it bit for bit; comparing it (and the energy rollups below)
    // extends fidelity sampling to the figures capacity planning
    // consumes, not just the tensors.
    const energy::PowerBreakdown& pa = a.layers[i].power;
    const energy::PowerBreakdown& pb = b.layers[i].power;
    if (pa.chain_w != pb.chain_w || pa.kmem_w != pb.kmem_w ||
        pa.imem_w != pb.imem_w || pa.omem_w != pb.omem_w)
      return fail("power differs at layer " + name);
  }
  if (!(a.final_activations == b.final_activations))
    return fail("final activations differ");
  // Whole-run rollups: the energy/time figures. Per-layer identity
  // already implies these, but the rollups are what dashboards and
  // sweeps actually read, so pin them directly too.
  if (a.total_energy_j() != b.total_energy_j())
    return fail("energy rollup differs");
  if (a.total_seconds() != b.total_seconds())
    return fail("seconds rollup differs");
  return true;
}

ServerStats& ServerStats::operator+=(const ServerStats& chip) {
  submitted += chip.submitted;
  completed += chip.completed;
  failed += chip.failed;
  cancelled += chip.cancelled;
  deadline_misses += chip.deadline_misses;
  deadline_expired += chip.deadline_expired;
  preemptions += chip.preemptions;
  resumes += chip.resumes;
  analytical_runs += chip.analytical_runs;
  cycle_accurate_runs += chip.cycle_accurate_runs;
  fidelity_samples += chip.fidelity_samples;
  fidelity_divergences += chip.fidelity_divergences;
  peak_queue_depth += chip.peak_queue_depth;
  return *this;
}

InferenceServer::InferenceServer(ServerOptions options)
    : opts_(std::move(options)), fleet_(new Fleet(opts_)) {}

InferenceServer::~InferenceServer() = default;

std::future<InferenceResult> InferenceServer::submit(
    nn::NetworkModel net, Tensor<std::int16_t> input,
    RequestOptions options) {
  return fleet_->submit(std::move(net), std::move(input), std::move(options));
}

std::future<InferenceResult> InferenceServer::submit(
    const nn::NetworkModel& net, std::int64_t batch,
    RequestOptions options) {
  return fleet_->submit(net, batch, std::move(options));
}

void InferenceServer::wait_idle() { fleet_->wait_idle(); }

// The fleet's totals over its one chip are that chip's own figures.
ServerStats InferenceServer::stats() const { return fleet_->stats(); }

const std::shared_ptr<PlanCache>& InferenceServer::plan_cache() const {
  return fleet_->plan_cache();
}

}  // namespace chainnn::serve
