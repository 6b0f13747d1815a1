// fleet-small: the small requests a serving fleet mostly sees, arriving
// in bursts, so queueing, routing, preemption and the fixed per-request
// cost dominate rather than MAC throughput.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "replay.hpp"
#include "serve/fleet.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

// Six requests arrive together, two per chip of the default fleet: the
// router spreads them, the later ones queue behind the first, and a
// higher tier preempts a lower one already running. A burst is the same
// arrival pattern whatever the host's speed; an open loop on a schedule
// overloaded the fleet in the host's slow stretches, and its latencies
// then spread by 2-6x between identical runs.
constexpr int kBurst = 6;
// Tiers >= 1 carry a deadline the fleet orders by; no healthy run misses
// it, so a miss is a failure, not host noise.
constexpr double kDeadlineMs = 1000.0;
constexpr int kInputsPerKey = 16;

enum Phase { kWarm, kMeasured };

struct State {
  std::vector<ServedModel> models;  // 0 = LeNet, 1 = CIFAR-10 quick
  std::unique_ptr<InputPool> pool;
  std::unique_ptr<serve::Fleet> fleet;
};

// 60% LeNet / 40% CIFAR-10, batch 1 (70%) or 2, priority 0/1/2 at
// 70/20/10%.
struct Mix {
  Deck<int> model{{0, 6}, {1, 4}};
  Deck<std::int64_t> batch{{1, 7}, {2, 3}};
  Deck<std::int32_t> priority{{0, 7}, {1, 2}, {2, 1}};

  Request draw(Rng& rng, std::int64_t seq) {
    Request r;
    r.seq = seq;
    r.model = model.draw(rng);
    r.batch = batch.draw(rng);
    r.input = static_cast<int>(rng.uniform_int(0, kInputsPerKey - 1));
    r.priority = priority.draw(rng);
    if (r.priority > 0) r.deadline_ms = kDeadlineMs;
    return r;
  }
};

serve::FleetOptions fleet_options() {
  serve::FleetOptions fo;  // the default 3 chips
  fo.threads_per_chip = 1;
  fo.preemption = true;
  return fo;
}

ServeCounters fleet_counters(const serve::Fleet& fleet) {
  const serve::FleetStats s = fleet.stats();
  std::vector<serve::ServerStats> chips;
  for (const serve::FleetChipStats& c : s.chips) chips.push_back(c.server);
  return counters_of(chips, s.plan_cache);
}

}  // namespace

void run_fleet_small(const RunConfig& cfg, Report& report, Trace& trace) {
  const std::int64_t scale = cfg.smoke ? 8 : 2;
  const std::unique_ptr<State> st = timed_setups<State>(
      cfg, report,
      [&cfg, scale] {
        auto s = std::make_unique<State>();
        s->models = {served_lenet(scale), served_cifar10(scale)};
        Rng rng(cfg.seed);
        s->pool = std::make_unique<InputPool>(
            &s->models,
            std::vector<std::pair<int, std::int64_t>>{{0, 1}, {0, 2}, {1, 1},
                                                      {1, 2}},
            kInputsPerKey, rng);
        s->fleet = std::make_unique<serve::Fleet>(fleet_options());
        // One cold request per (model, batch): plans and pools fill here.
        for (int m = 0; m < 2; ++m)
          for (std::int64_t b = 1; b <= 2; ++b) {
            Request r;
            r.model = m;
            r.batch = b;
            serve::RequestOptions ro;
            ro.inter_layer = s->models[static_cast<std::size_t>(m)].inter_layer;
            if (s->fleet
                    ->submit(s->models[static_cast<std::size_t>(m)].net,
                             s->pool->input(r), ro)
                    .get()
                    .status != serve::RequestStatus::kOk)
              throw std::runtime_error("fleet-small: cold request failed");
          }
        return s;
      });
  serve::Fleet& fleet = *st->fleet;

  Rng mix_rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 1);
  Mix mix;
  std::int64_t seq = 0;
  LoadGenerator load(
      [&](const Request& r) {
        const ServedModel& m = st->models[static_cast<std::size_t>(r.model)];
        serve::RequestOptions ro;
        ro.priority = r.priority;
        ro.deadline_ms = r.deadline_ms;
        ro.inter_layer = m.inter_layer;
        nn::NetworkModel net = m.net;
        Tensor<std::int16_t> input = st->pool->input(r);
        Submitted s;
        s.begin = Clock::now();
        s.future = fleet.submit(std::move(net), std::move(input), std::move(ro));
        s.end = Clock::now();
        return s;
      },
      [&] { return mix.draw(mix_rng, seq++); });

  const auto warm_end = after_ms(Clock::now(), 1e3 * cfg.warmup_s());
  while (Clock::now() < warm_end) load.burst(kBurst, kWarm);
  const ServeCounters before = fleet_counters(fleet);
  const Windows windows{Clock::now(), cfg.seconds / kWindows};
  while (Clock::now() < windows.end()) load.burst(kBurst, kMeasured);
  fleet.wait_idle();
  const double rss = peak_rss_mib();
  const ServeCounters after = fleet_counters(fleet);

  const HostMeter& host = report.host();
  std::vector<const Completed*> measured;
  std::vector<Timed> latency;
  // Per burst: its start, its last completion and its requests served.
  std::map<std::int64_t, std::pair<Clock::time_point, Clock::time_point>> span;
  std::map<std::int64_t, double> served;
  std::int64_t good = 0;
  std::int64_t threw = 0;
  std::string first_error;
  for (const Completed& c : load.done) {
    if (c.threw && threw++ == 0) first_error = c.error;
    if (c.phase != kMeasured) continue;
    measured.push_back(&c);
    auto& [begin, end] = span.try_emplace(c.burst, c.due, c.observed).first->second;
    end = std::max(end, c.observed);
    if (!c.ok()) continue;
    served[c.burst] += 1.0;
    latency.push_back(timed(host, windows, c.due, c.observed));
    // A cancelled, rejected or failed request misses its deadline.
    if (!c.deadline_missed) ++good;
  }
  std::sort(measured.begin(), measured.end(),
            [](const Completed* a, const Completed* b) {
              return a->req.seq < b->req.seq;
            });
  std::vector<std::pair<Timed, double>> bursts;
  for (const auto& [burst, interval] : span)
    bursts.emplace_back(timed(host, windows, interval.first, interval.second),
                        served[burst]);

  const Spread throughput = work_rate(bursts);
  report.end_to_end("throughput_per_s", throughput);
  report.end_to_end("latency_p50_ms", pooled_quantile(latency, 0.5));
  report.end_to_end("latency_tail_ms", pooled_quantile(latency, 0.99));
  report.end_to_end("goodput_share",
                    ratio(static_cast<double>(good),
                          static_cast<double>(measured.size())));
  report.end_to_end("peak_rss_mb", rss);

  st->pool->compute_references();
  const std::int64_t mismatched = st->pool->mismatches(load.done);
  report.attempted = static_cast<std::int64_t>(load.done.size());
  report.failed = threw + mismatched;
  report.check("every served digest matches its direct reference",
               mismatched == 0, std::to_string(mismatched) + " mismatched");
  report.check("no request threw", threw == 0,
               std::to_string(threw) + " threw, first: " + first_error);
  report.invariant("reference_total_cycles",
                   chainnn::net::Json(st->pool->reference_cycles()));
  report.note("requests", chainnn::net::Json(static_cast<std::int64_t>(
                              measured.size())));
  report.note("bursts", chainnn::net::Json(static_cast<std::int64_t>(
                            bursts.size())));

  if (!cfg.traced()) return;
  std::vector<RouteProbe> probes;
  for (const Completed* c : measured) {
    const ServedModel& m = st->models[static_cast<std::size_t>(c->req.model)];
    probes.push_back({&m.net, c->req.batch, m.inter_layer});
  }
  report_counter_layers(before, after, report);
  report_request_layers(measured, twin_route_us(fleet_options(), probes),
                        throughput.value, report);
  report.not_exercised({"net.", "journal.", "dataflow.", "dse."});
  trace_requests(measured, trace);
  std::vector<ReplayCandidate> replayable;
  for (const Completed* c : measured) {
    if (!c->ok()) continue;
    ReplayCandidate rc;
    rc.model = &st->models[static_cast<std::size_t>(c->req.model)];
    rc.input = &st->pool->input(c->req);
    rc.accelerator = chip_config(fleet, c->chip);
    rc.digest = c->digest;
    rc.request = c->req.seq;
    replayable.push_back(rc);
  }
  replay_sample(replayable, cfg, trace, report);
}

}  // namespace bench
