#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

#include "energy/energy_model.hpp"
#include "net/gateway.hpp"
#include "serve/sweep_driver.hpp"
#include "tensor/arena.hpp"

namespace bench {

namespace {

ServedModel with_pools(nn::NetworkModel net,
                       const std::vector<std::size_t>& pool_after,
                       nn::PoolParams pool) {
  ServedModel m;
  m.inter_layer.assign(net.conv_layers.size(), chain::InterLayerOp{});
  for (const std::size_t i : pool_after) {
    m.inter_layer[i].pool = true;
    m.inter_layer[i].pool_params = pool;
  }
  m.net = std::move(net);
  return m;
}

}  // namespace

// Pool placements follow the reference networks: each pool brings the
// activations down to the next conv layer's nominal input size.
ServedModel served_lenet(std::int64_t scale) {
  return with_pools(serve::channel_reduced_proxy(nn::lenet_mnist(), scale),
                    {0, 1}, {2, 2, 0});
}

ServedModel served_cifar10(std::int64_t scale) {
  return with_pools(serve::channel_reduced_proxy(nn::cifar10_quick(), scale),
                    {0, 1}, {2, 2, 0});
}

ServedModel served_alexnet(std::int64_t scale) {
  return with_pools(serve::channel_reduced_proxy(nn::alexnet(), scale),
                    {0, 1, 4}, {3, 2, 0});
}

ServedModel served_vgg16(std::int64_t scale) {
  return with_pools(serve::channel_reduced_proxy(nn::vgg16(), scale),
                    {1, 3, 6, 9, 12}, {2, 2, 0});
}

ServedModel served_unpooled(const nn::NetworkModel& net, std::int64_t scale) {
  return {serve::channel_reduced_proxy(net, scale), {}};
}

Tensor<std::int16_t> random_input(const nn::NetworkModel& net,
                                  std::int64_t batch, Rng& rng) {
  const nn::ConvLayerParams& first = net.conv_layers.front();
  Tensor<std::int16_t> t(chainnn::Shape{batch, first.in_channels,
                                        first.in_height, first.in_width});
  t.fill_random(rng, -64, 64);
  return t;
}

std::vector<Reference> direct_references(
    const std::vector<ReferenceJob>& jobs) {
  std::vector<Reference> out(jobs.size());
  // Plans depend only on layer shapes and buffers only on sizes: sharing
  // them leaves results bit-identical and saves re-planning every layer
  // and re-allocating every tensor of every job.
  const auto plans = std::make_shared<serve::PlanCache>();
  const auto arena = std::make_shared<chainnn::TensorArena>();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    tasks.emplace_back([&jobs, &out, &plans, &arena, i] {
      // Tasks must not throw; a failed reference is recorded.
      try {
        chain::ChainAccelerator acc(serve::analytical_accelerator_config());
        const auto energy = chainnn::energy::EnergyModel::paper_calibrated();
        chain::NetworkRunner runner(acc, energy);
        chain::NetworkRunOptions ro;
        ro.verify_against_golden = false;
        ro.inter_layer = jobs[i].model->inter_layer;
        ro.plan_cache = plans;
        ro.arena = arena;
        const chain::NetworkRunResult run =
            runner.run(jobs[i].model->net, *jobs[i].input, ro);
        out[i].digest = chainnn::net::run_digest(run);
        out[i].cycles = chainnn::net::run_cycles(run);
        for (const chain::NetworkLayerResult& l : run.layers)
          out[i].macs += l.layer.macs_total();
        out[i].result_bytes = result_bytes(run);
      } catch (const std::exception& e) {
        out[i].error = e.what();
      }
    });
  }
  run_on_every_cpu(std::move(tasks));
  return out;
}

chain::AcceleratorConfig chip_config(const serve::Fleet& fleet,
                                     const std::string& chip) {
  chain::AcceleratorConfig cfg = serve::analytical_accelerator_config();
  for (const serve::ChipSpec& spec : fleet.chips())
    if (spec.name == chip) {
      cfg.array = spec.array;
      cfg.memory = spec.memory;
    }
  return cfg;
}

double result_bytes(const chain::NetworkRunResult& run) {
  double bytes = 2.0 * static_cast<double>(
                           run.final_activations.num_elements());
  for (const chain::NetworkLayerResult& l : run.layers)
    bytes += 8.0 * static_cast<double>(l.run.accumulators.num_elements()) +
             2.0 * static_cast<double>(l.run.ofmaps.num_elements()) +
             static_cast<double>(serve::plan_footprint_bytes(l.run.plan));
  return bytes;
}

void LoadGenerator::poll(int phase) {
  for (std::size_t i = 0; i < pending_.size();) {
    Pending& p = pending_[i];
    if (p.sub.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    Completed c;
    c.observed = Clock::now();
    c.req = p.req;
    c.phase = phase;
    c.burst = bursts_;
    c.due = p.due;
    c.submit_begin = p.sub.begin;
    c.submit_end = p.sub.end;
    try {
      const serve::InferenceResult r = p.sub.future.get();
      c.status = r.status;
      c.deadline_missed = r.deadline_missed;
      c.queue_ms = r.queue_ms;
      c.wall_ms = r.wall_ms;
      c.chip = r.chip;
      if (r.status == serve::RequestStatus::kOk) {
        c.digest = chainnn::net::run_digest(r.run);
        for (const chain::NetworkLayerResult& l : r.run.layers)
          c.macs += l.layer.macs_total();
        c.result_bytes = result_bytes(r.run);
      }
    } catch (const std::exception& e) {
      c.threw = true;
      c.error = e.what();
    }
    done.push_back(std::move(c));
    pending_[i] = std::move(pending_.back());
    pending_.pop_back();
  }
}

void LoadGenerator::burst(int n, int phase) {
  const Clock::time_point due = Clock::now();
  for (int i = 0; i < n; ++i) pending_.push_back({next_(), due, {}});
  for (Pending& p : pending_) p.sub = submit_(p.req);
  while (!pending_.empty()) {
    poll(phase);
    if (!pending_.empty()) std::this_thread::sleep_for(kPollQuantum);
  }
  ++bursts_;
}

InputPool::InputPool(const std::vector<ServedModel>* models,
                     const std::vector<std::pair<int, std::int64_t>>& keys,
                     int per_key, Rng& rng)
    : models_(models) {
  for (const Key& key : keys)
    for (int i = 0; i < per_key; ++i)
      inputs_[key].push_back(random_input(
          (*models_)[static_cast<std::size_t>(key.first)].net, key.second,
          rng));
}

const Tensor<std::int16_t>& InputPool::input(const Request& r) const {
  return inputs_.at({r.model, r.batch}).at(static_cast<std::size_t>(r.input));
}

const Reference& InputPool::reference(const Request& r) const {
  return refs_.at({r.model, r.batch}).at(static_cast<std::size_t>(r.input));
}

void InputPool::compute_references() {
  std::vector<ReferenceJob> jobs;
  for (const auto& [key, tensors] : inputs_)
    for (const Tensor<std::int16_t>& t : tensors)
      jobs.push_back({&(*models_)[static_cast<std::size_t>(key.first)], &t});
  const std::vector<Reference> refs = direct_references(jobs);
  auto next = refs.begin();
  for (const auto& [key, tensors] : inputs_) {
    const auto end = next + static_cast<std::ptrdiff_t>(tensors.size());
    refs_[key].assign(next, end);
    next = end;
  }
}

std::int64_t InputPool::mismatches(const std::deque<Completed>& done) const {
  std::int64_t bad = 0;
  for (const Completed& c : done) {
    if (!c.ok()) continue;
    const Reference& ref = reference(c.req);
    if (!ref.error.empty() || ref.digest != c.digest) ++bad;
  }
  return bad;
}

std::int64_t InputPool::reference_cycles() const {
  std::int64_t cycles = 0;
  for (const auto& [key, refs] : refs_)
    for (const Reference& r : refs) cycles += r.cycles;
  return cycles;
}

ServeCounters counters_of(const serve::ServerStats& s) {
  return {s.completed, s.preemptions, s.peak_queue_depth, s.plan_cache,
          s.arena};
}

ServeCounters counters_of(const std::vector<serve::ServerStats>& chips,
                          const serve::PlanCacheStats& shared_cache) {
  ServeCounters c;
  c.plan_cache = shared_cache;
  for (const serve::ServerStats& s : chips) {
    c.completed += s.completed;
    c.preemptions += s.preemptions;
    c.peak_queue_depth = std::max(c.peak_queue_depth, s.peak_queue_depth);
    c.arena.allocations += s.arena.allocations;
    c.arena.reuses += s.arena.reuses;
    c.arena.high_water_bytes += s.arena.high_water_bytes;
  }
  return c;
}

namespace {

template <typename F>
std::vector<double> collect(const std::vector<const Completed*>& cs, F f) {
  std::vector<double> v;
  v.reserve(cs.size());
  for (const Completed* c : cs) v.push_back(f(*c));
  return v;
}

}  // namespace

void report_counter_layers(const ServeCounters& before,
                           const ServeCounters& after, Report& report) {
  const double completed =
      static_cast<double>(after.completed - before.completed);
  report.layer("serve.preemptions_per_kreq",
               1e3 * ratio(static_cast<double>(after.preemptions -
                                               before.preemptions),
                           completed));
  report.layer("serve.peak_queue_depth",
               static_cast<double>(after.peak_queue_depth));
  report.layer("serve.plan_cache_hit_share",
               ratio(static_cast<double>(after.plan_cache.hits -
                                         before.plan_cache.hits),
                     static_cast<double>(after.plan_cache.lookups() -
                                         before.plan_cache.lookups())));
  report.layer("tensor.arena_reuse_share",
               ratio(static_cast<double>(after.arena.reuses -
                                         before.arena.reuses),
                     static_cast<double>(after.arena.allocations -
                                         before.arena.allocations)));
  report.layer("tensor.arena_high_water_mb",
               static_cast<double>(after.arena.high_water_bytes) /
                   (1024.0 * 1024.0));
}

std::vector<double> twin_route_us(serve::FleetOptions options,
                                  const std::vector<RouteProbe>& probes) {
  options.journal = nullptr;
  const serve::Fleet twin(std::move(options));
  const auto route = [&twin](const RouteProbe& p) {
    serve::RequestOptions ro;
    ro.inter_layer = p.inter_layer;
    return twin.plan_route(*p.net, p.batch, ro);
  };
  for (const RouteProbe& p : probes) (void)route(p);
  std::vector<double> us;
  us.reserve(probes.size());
  for (const RouteProbe& p : probes) {
    const auto t0 = Clock::now();
    (void)route(p);
    us.push_back(us_between(t0, Clock::now()));
  }
  return us;
}

void report_request_layers(const std::vector<const Completed*>& measured,
                           const std::vector<double>& route_us,
                           double throughput, Report& report) {
  std::vector<const Completed*> ok;
  for (const Completed* c : measured)
    if (c->ok()) ok.push_back(c);
  report.layer("serve.submit_us_p50",
               median(collect(measured, [](const Completed& c) {
                 return us_between(c.submit_begin, c.submit_end);
               })));
  report.layer("serve.route_us_p50", median(route_us));
  const auto queue =
      collect(ok, [](const Completed& c) { return c.queue_ms; });
  report.layer("serve.queue_ms_p50", quantile(queue, 0.5));
  report.layer("serve.queue_ms_p99", quantile(queue, 0.99));
  report.layer("serve.exec_ms_p50",
               median(collect(ok, [](const Completed& c) { return c.wall_ms; })));
  report.layer("serve.completion_us_p50",
               median(collect(ok, [](const Completed& c) {
                 return c.completion_us();
               })));

  double macs = 0.0;
  double bytes = 0.0;
  for (const Completed* c : ok) {
    macs += static_cast<double>(c->macs);
    bytes += c->result_bytes;
  }
  const double n = static_cast<double>(ok.size());
  report.layer("chain.executed_mmac_per_req", ratio(macs, n) / 1e6);
  report.layer("chain.result_mb_per_req", ratio(bytes, n) / (1024.0 * 1024.0));
  report.layer("chain.served_gmac_per_s", throughput * ratio(macs, n) / 1e9);
}

void trace_requests(const std::vector<const Completed*>& measured,
                    Trace& trace) {
  for (const Completed* c : measured) {
    const std::int64_t track = c->req.seq + 1;
    const std::int64_t root =
        trace.span("request", c->due, c->observed, 0, c->req.seq, track);
    trace.span("submit", c->submit_begin, c->submit_end, root, c->req.seq,
               track);
    const auto exec_begin = after_ms(c->submit_end, c->queue_ms);
    trace.span("queue", c->submit_end, exec_begin, root, c->req.seq, track);
    trace.span("exec", exec_begin, after_ms(exec_begin, c->wall_ms), root,
               c->req.seq, track);
  }
}

}  // namespace bench
