// gateway-journal: the wire path. A keep-alive HTTP client writes
// requests (each a journal SUBMIT + terminal record, fsync batched)
// beside a stats read path (/metrics scrapes), on the fleet configuration
// fleet-small runs with the journal off.
#include <deque>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "net/gateway.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "replay.hpp"
#include "serve/durable.hpp"
#include "serve/fleet.hpp"
#include "serve/journal.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

namespace net = chainnn::net;
using net::Json;

// One keep-alive connection, one request at a time. The benchmark runs on
// one CPU, so more connections would only queue behind each other there.
constexpr std::int64_t kModelScale = 4;
constexpr int kScrapeEvery = 100;
constexpr double kGenerousDeadlineMs = 10'000.0;
constexpr std::int64_t kFsyncEvery = 8;
constexpr int kIdentityRequests = 16;
constexpr int kRecoveryDrills = 3;

const char* const kModelNames[] = {"lenet", "cifar10"};

enum class Kind { kSubmit, kPastDeadline, kRejectProbe, kScrape };
enum Phase { kWarm, kMeasured };

struct WireRequest {
  Kind kind = Kind::kSubmit;
  int model = 0;
  std::int64_t batch = 1;
  std::int32_t priority = 0;
};

// Both models, batch 1-2, priority 0/1/2 at 70/20/10% with a deadline no
// healthy run misses; 1% past-deadline probes (must come back cancelled)
// and 1% admission probes with an unmeetable deadline (must come back
// rejected).
struct Mix {
  Deck<Kind> kind{{Kind::kSubmit, 98}, {Kind::kPastDeadline, 1},
                  {Kind::kRejectProbe, 1}};
  Deck<int> model{{0, 1}, {1, 1}};
  Deck<std::int64_t> batch{{1, 1}, {2, 1}};
  Deck<std::int32_t> priority{{0, 7}, {1, 2}, {2, 1}};

  WireRequest draw(Rng& rng, bool probes) {
    WireRequest r;
    if (probes) r.kind = kind.draw(rng);
    r.model = model.draw(rng);
    r.batch = batch.draw(rng);
    r.priority = priority.draw(rng);
    return r;
  }
};

std::string submit_body(const WireRequest& r) {
  net::JsonObject o;
  o.emplace_back("model", Json(kModelNames[r.model]));
  o.emplace_back("batch", Json(r.batch));
  o.emplace_back("priority", Json(static_cast<std::int64_t>(r.priority)));
  switch (r.kind) {
    case Kind::kPastDeadline: o.emplace_back("deadline_ms", Json(-1.0)); break;
    case Kind::kRejectProbe:
      o.emplace_back("deadline_ms", Json(1e-3));
      o.emplace_back("admission", Json(true));
      break;
    default: o.emplace_back("deadline_ms", Json(kGenerousDeadlineMs));
  }
  return Json(std::move(o)).dump();
}

struct WireSample {
  Kind kind = Kind::kSubmit;
  int phase = kWarm;
  Clock::time_point send, recv;
  bool transport_ok = false;
  int http_status = 0;
  std::string status;
  std::string chip;
  double wall_ms = 0.0;
  double queue_ms = 0.0;
  double gateway_ms = 0.0;
  std::int64_t cycles = 0;
  std::uint64_t digest = 0;
  bool deadline_missed = false;
  double parse_us = 0.0;

  [[nodiscard]] bool answered() const {
    return transport_ok && http_status == 200;
  }
  [[nodiscard]] bool ok() const { return answered() && status == "ok"; }
  [[nodiscard]] double latency_ms() const { return ms_between(send, recv); }
};

WireSample exchange(net::HttpClient& client, const WireRequest& r, int phase) {
  WireSample s;
  s.kind = r.kind;
  s.phase = phase;
  const std::string body = submit_body(r);
  net::HttpResponse resp;
  s.send = Clock::now();
  s.transport_ok = client.post_json("/v1/submit", body, &resp);
  s.recv = Clock::now();
  if (!s.transport_ok) return s;
  s.http_status = resp.status;
  const auto p0 = Clock::now();
  const std::optional<Json> doc = Json::parse(resp.body);
  s.parse_us = us_between(p0, Clock::now());
  if (!doc) return s;
  const auto str = [&doc](const char* key) {
    const Json* f = doc->find(key);
    return f && f->is_string() ? f->as_string() : std::string();
  };
  const auto num = [&doc](const char* key) {
    const Json* f = doc->find(key);
    return f && f->is_number() ? f->as_double() : 0.0;
  };
  s.status = str("status");
  s.chip = str("chip");
  s.wall_ms = num("wall_ms");
  s.queue_ms = num("queue_ms");
  s.gateway_ms = num("gateway_ms");
  if (const Json* f = doc->find("cycles"); f && f->is_integer())
    s.cycles = f->as_int();
  if (const Json* f = doc->find("deadline_missed"); f && f->is_bool())
    s.deadline_missed = f->as_bool();
  const std::string hex = str("digest");
  if (!hex.empty()) s.digest = std::stoull(hex, nullptr, 16);
  return s;
}

serve::FleetOptions fleet_options(const RunConfig& cfg,
                                  std::shared_ptr<serve::Journal> journal) {
  serve::FleetOptions fo;
  fo.threads_per_chip = 1;
  fo.preemption = true;
  fo.journal = std::move(journal);
  // The fleet generates a journaled request's input from this seed and
  // the request's tag, so the run's inputs follow --seed.
  fo.input_seed = cfg.seed * 0x9E3779B97F4A7C15ULL + 7;
  return fo;
}

std::shared_ptr<serve::Journal> open_journal(const std::string& path) {
  serve::JournalOptions jo;
  jo.path = path;
  jo.fsync_every_records = kFsyncEvery;
  return std::make_shared<serve::Journal>(jo);
}

struct State {
  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    client.reset();
    gateway.reset();
    fleet.reset();
    journal.reset();
    std::error_code ec;
    std::filesystem::remove(journal_path, ec);
  }

  std::string journal_path;
  std::shared_ptr<serve::Journal> journal;
  std::unique_ptr<serve::Fleet> fleet;
  std::unique_ptr<net::Gateway> gateway;
  std::unique_ptr<net::HttpClient> client;
  std::vector<WireSample> cold;  // the set-up's cold requests
};

// The connection's closed loop until `end`: every kScrapeEvery-th
// exchange is a GET /metrics, the rest submits from `mix`. Returns what
// stopped it early, or an empty string.
std::string client_loop(net::HttpClient& client, Mix& mix, Rng& rng, int& k,
                        Clock::time_point end, int phase,
                        std::deque<WireSample>& out) {
  try {
    for (; Clock::now() < end; ++k) {
      if (k % kScrapeEvery == kScrapeEvery - 1) {
        WireSample s;
        s.kind = Kind::kScrape;
        s.phase = phase;
        net::HttpResponse resp;
        s.send = Clock::now();
        s.transport_ok = client.get("/metrics", &resp);
        s.recv = Clock::now();
        s.http_status = resp.status;
        out.push_back(std::move(s));
        continue;
      }
      out.push_back(exchange(client, mix.draw(rng, true), phase));
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

// The journal as records: completed tags, and every SUBMIT.
struct JournalContents {
  std::set<std::uint64_t> completed;
  std::vector<serve::SubmitRecord> submits;
  bool clean = false;  // no torn tail, no checksum error
};

JournalContents read_journal(const std::string& path) {
  const serve::JournalReadResult log = serve::read_journal_file(path);
  JournalContents c;
  c.clean = !log.truncated_tail && log.checksum_errors == 0;
  for (const serve::JournalRecord& rec : log.records) {
    if (rec.type == serve::RecordType::kComplete)
      c.completed.insert(serve::decode_terminal(rec.payload, rec.type).tag);
    else if (rec.type == serve::RecordType::kSubmit)
      c.submits.push_back(serve::decode_submit(rec.payload));
  }
  return c;
}

// Rewrites the journal's records up to its last SUBMIT into a new
// journal: a crash with that request (and any other still running) in
// flight.
void write_cut_journal(const std::string& from, const std::string& to) {
  const serve::JournalReadResult log = serve::read_journal_file(from);
  std::size_t keep = 0;
  for (std::size_t i = 0; i < log.records.size(); ++i)
    if (log.records[i].type == serve::RecordType::kSubmit) keep = i + 1;
  serve::JournalOptions jo;
  jo.path = to;
  serve::Journal cut(jo);
  for (std::size_t i = 0; i < keep; ++i)
    cut.append(static_cast<char>(log.records[i].type) + log.records[i].payload);
  cut.sync();
}

// Sequential wire-vs-direct identity pass on twin journaling fleets:
// the same requests in the same order get the same tags, inputs and
// routes, so every wire response must equal the direct result. Returns
// the mismatches; `submit_us` receives the direct Fleet::submit timings.
std::int64_t identity_pass(const RunConfig& cfg, int requests,
                           std::vector<double>& submit_us) {
  const std::string wire_path = cfg.workdir + "/identity-wire.jrnl";
  const std::string direct_path = cfg.workdir + "/identity-direct.jrnl";
  std::int64_t mismatches = 0;
  {
    serve::Fleet wire_fleet(fleet_options(cfg, open_journal(wire_path)));
    serve::Fleet direct_fleet(fleet_options(cfg, open_journal(direct_path)));
    net::GatewayOptions go;
    go.model_scale = kModelScale;
    net::Gateway gateway(wire_fleet, go);
    net::HttpClient client("127.0.0.1", gateway.port());
    // The shapes the gateway serves by name at kModelScale.
    const ServedModel proxies[] = {
        served_unpooled(nn::model_by_name(kModelNames[0]), kModelScale),
        served_unpooled(nn::model_by_name(kModelNames[1]), kModelScale)};
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 3);
    Mix mix;
    for (int i = 0; i < requests; ++i) {
      const WireRequest r = mix.draw(rng, false);
      const WireSample wire = exchange(client, r, kMeasured);
      serve::RequestOptions ro;
      ro.priority = r.priority;
      ro.deadline_ms = kGenerousDeadlineMs;
      const auto t0 = Clock::now();
      auto future = direct_fleet.submit(proxies[r.model].net, r.batch, ro);
      submit_us.push_back(us_between(t0, Clock::now()));
      const serve::InferenceResult direct = future.get();
      const bool same =
          wire.answered() &&
          wire.status == net::request_status_name(direct.status) &&
          wire.chip == direct.chip &&
          wire.cycles == net::run_cycles(direct.run) &&
          wire.digest == net::run_digest(direct.run);
      if (!same) ++mismatches;
    }
    gateway.stop();
  }
  std::error_code ec;
  std::filesystem::remove(wire_path, ec);
  std::filesystem::remove(direct_path, ec);
  return mismatches;
}

}  // namespace

void run_gateway_journal(const RunConfig& cfg, Report& report, Trace& trace) {
  int setup_index = 0;
  const std::unique_ptr<State> st = timed_setups<State>(
      cfg, report,
      [&cfg, &setup_index] {
        auto s = std::make_unique<State>();
        s->journal_path =
            cfg.workdir + "/gateway-" + std::to_string(setup_index++) + ".jrnl";
        s->journal = open_journal(s->journal_path);
        s->fleet = std::make_unique<serve::Fleet>(fleet_options(cfg, s->journal));
        net::GatewayOptions go;
        go.model_scale = kModelScale;
        s->gateway = std::make_unique<net::Gateway>(*s->fleet, go);
        s->client = std::make_unique<net::HttpClient>("127.0.0.1",
                                                      s->gateway->port());
        // One cold request per (model, batch), over the wire.
        for (int m = 0; m < 2; ++m)
          for (std::int64_t b = 1; b <= 2; ++b) {
            WireRequest r;
            r.model = m;
            r.batch = b;
            s->cold.push_back(exchange(*s->client, r, kWarm));
            if (!s->cold.back().ok())
              throw std::runtime_error("gateway-journal: cold request failed");
          }
        return s;
      });
  serve::Fleet& fleet = *st->fleet;

  Mix mix;
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 100);
  int k = 0;
  std::deque<WireSample> exchanges;
  std::string error =
      client_loop(*st->client, mix, rng, k,
                  after_ms(Clock::now(), 1e3 * cfg.warmup_s()), kWarm,
                  exchanges);
  const serve::FleetStats stats_before = fleet.stats();
  std::vector<serve::ServerStats> chips_before;
  for (const serve::FleetChipStats& c : stats_before.chips)
    chips_before.push_back(c.server);
  const ServeCounters before =
      counters_of(chips_before, stats_before.plan_cache);
  const Windows windows{Clock::now(), cfg.seconds / kWindows};
  if (error.empty())
    error = client_loop(*st->client, mix, rng, k, windows.end(), kMeasured,
                        exchanges);
  fleet.wait_idle();
  st->journal->sync();
  const double rss = peak_rss_mib();
  const serve::FleetStats stats_after = fleet.stats();
  std::vector<serve::ServerStats> chips_after;
  for (const serve::FleetChipStats& c : stats_after.chips)
    chips_after.push_back(c.server);
  const ServeCounters after = counters_of(chips_after, stats_after.plan_cache);
  const std::deque<WireSample>& samples = exchanges;

  // Outcome accounting. Probes are checked for their expected verdict
  // but excluded from the failure count.
  std::int64_t failed = 0;
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t ok = 0, cancelled = 0, rejected = 0;
  std::int64_t probe_errors = 0;
  std::int64_t measured_sent = 0;
  std::int64_t measured_normal = 0;
  std::int64_t good = 0;
  std::multiset<std::uint64_t> served_digests;
  for (const WireSample& s : st->cold) served_digests.insert(s.digest);
  const HostMeter& host = report.host();
  std::vector<Timed> latency;
  std::vector<std::pair<Timed, double>> ops;
  std::vector<double> scrape_ms, parse_us, gateway_self, transport, queue,
      exec;
  for (const WireSample& s : samples) {
    const Timed t = timed(host, windows, s.send, s.recv);
    if (s.phase == kMeasured)
      ops.emplace_back(t, s.kind == Kind::kSubmit && s.ok() ? 1.0 : 0.0);
    if (s.kind == Kind::kScrape) {
      if (!s.answered()) ++failed;
      else if (s.phase == kMeasured) scrape_ms.push_back(s.latency_ms());
      continue;
    }
    ++sent;
    if (s.phase == kMeasured) ++measured_sent;
    if (!s.answered()) {
      ++failed;
      continue;
    }
    ++answered;
    ok += s.status == "ok";
    cancelled += s.status == "cancelled";
    rejected += s.status == "rejected";
    if (s.kind == Kind::kPastDeadline) {
      probe_errors += s.status != "cancelled";
      continue;
    }
    if (s.kind == Kind::kRejectProbe) {
      probe_errors += s.status != "rejected";
      continue;
    }
    if (s.status != "ok" && s.status != "cancelled") ++failed;
    if (s.ok()) served_digests.insert(s.digest);
    if (s.phase != kMeasured) continue;
    ++measured_normal;
    parse_us.push_back(s.parse_us);
    if (!s.ok()) continue;
    if (!s.deadline_missed) ++good;
    latency.push_back(t);
    gateway_self.push_back(s.gateway_ms - s.queue_ms - s.wall_ms);
    transport.push_back(s.latency_ms() - s.gateway_ms);
    queue.push_back(s.queue_ms);
    exec.push_back(s.wall_ms);
  }

  const Spread throughput = work_rate(ops);
  report.end_to_end("throughput_per_s", throughput);
  report.end_to_end("latency_p50_ms", pooled_quantile(latency, 0.5));
  report.end_to_end("latency_tail_ms", pooled_quantile(latency, 0.99));
  report.end_to_end("goodput_share",
                    ratio(static_cast<double>(good),
                          static_cast<double>(measured_normal)));
  report.end_to_end("peak_rss_mb", rss);

  report.check("the connection ran to the end", error.empty(), error);
  report.check("probes resolved as cancelled / rejected", probe_errors == 0,
               std::to_string(probe_errors) + " wrong");
  report.check("ok + cancelled + rejected == sent",
               ok + cancelled + rejected == sent,
               std::to_string(ok + cancelled + rejected) + " of " +
                   std::to_string(sent));
  const net::GatewayStats gw = st->gateway->stats();
  report.check("gateway counted every submit once",
               gw.submits_ok + gw.submits_cancelled + gw.submits_rejected ==
                       answered + static_cast<std::int64_t>(st->cold.size()) &&
                   gw.submits_failed == 0 && gw.http.responses_5xx == 0);

  // Every completed request's output, from the journal's own copy of its
  // input: the multiset of served digests must equal the multiset of
  // direct-reference digests of the completed SUBMITs.
  const JournalContents journal = read_journal(st->journal_path);
  std::vector<ServedModel> journaled;
  std::vector<const serve::SubmitRecord*> verified;
  for (const serve::SubmitRecord& rec : journal.submits)
    if (journal.completed.count(rec.tag)) {
      journaled.push_back({rec.net, rec.inter_layer});
      verified.push_back(&rec);
    }
  std::vector<ReferenceJob> jobs;
  for (std::size_t i = 0; i < verified.size(); ++i)
    jobs.push_back({&journaled[i], &verified[i]->input});
  const std::vector<Reference> refs = direct_references(jobs);
  std::int64_t mismatched = 0;
  std::int64_t total_cycles = 0;
  double macs = 0.0, bytes = 0.0;
  for (const Reference& ref : refs) {
    const auto it = served_digests.find(ref.digest);
    if (!ref.error.empty() || it == served_digests.end()) {
      ++mismatched;
    } else {
      served_digests.erase(it);
    }
    total_cycles += ref.cycles;
    macs += static_cast<double>(ref.macs);
    bytes += ref.result_bytes;
  }
  mismatched += static_cast<std::int64_t>(served_digests.size());
  report.check("journal read back clean", journal.clean);
  report.check("every served digest matches a direct run of its journaled input",
               mismatched == 0, std::to_string(mismatched) + " mismatched");

  std::vector<double> submit_us;
  const std::int64_t identity_mismatches = identity_pass(
      cfg, cfg.smoke ? 4 : kIdentityRequests, submit_us);
  report.check("wire responses equal direct submits on a twin fleet",
               identity_mismatches == 0,
               std::to_string(identity_mismatches) + " diverged");

  const std::string cut_path = cfg.workdir + "/gateway-cut.jrnl";
  write_cut_journal(st->journal_path, cut_path);
  const std::size_t in_flight =
      serve::analyze_journal_file(cut_path).in_flight.size();
  std::vector<double> recover_ms;
  bool drills_ok = in_flight > 0;
  for (int d = 0; d < (cfg.smoke ? 1 : kRecoveryDrills); ++d) {
    serve::Fleet recovered(fleet_options(cfg, nullptr));
    const auto t0 = Clock::now();
    serve::RecoveryReport rep = recovered.recover(cut_path);
    recover_ms.push_back(ms_between(t0, Clock::now()));
    drills_ok = drills_ok &&
                rep.replayed == static_cast<std::int64_t>(in_flight);
    for (auto& [tag, future] : rep.futures) {
      (void)tag;
      drills_ok = drills_ok &&
                  future.get().status == serve::RequestStatus::kOk;
    }
    recovered.wait_idle();
  }
  std::error_code ec;
  std::filesystem::remove(cut_path, ec);
  report.check("recovery replays exactly the cut journal's in-flight set",
               drills_ok, std::to_string(in_flight) + " in flight");

  report.attempted = static_cast<std::int64_t>(samples.size());
  report.failed = failed + mismatched + identity_mismatches;
  report.invariant("identity_requests",
                   Json(static_cast<std::int64_t>(submit_us.size())));
  report.note("verified_requests", Json(static_cast<std::int64_t>(refs.size())));
  report.note("verified_total_cycles", Json(total_cycles));
  report.note("requests", Json(measured_sent));

  if (!cfg.traced()) return;
  const double n = static_cast<double>(refs.size());
  const double records =
      static_cast<double>(stats_after.journal.records_appended -
                          stats_before.journal.records_appended);
  const double per_req = static_cast<double>(measured_sent);
  std::vector<RouteProbe> probes;
  for (std::size_t i = 0; i < verified.size(); ++i)
    probes.push_back({&journaled[i].net, verified[i]->input.shape().dim(0),
                      journaled[i].inter_layer});
  report.layer("serve.route_us_p50",
               median(twin_route_us(fleet_options(cfg, nullptr), probes)));
  report.layer("serve.submit_us_p50", median(submit_us));
  report.layer("serve.queue_ms_p50", quantile(queue, 0.5));
  report.layer("serve.queue_ms_p99", quantile(queue, 0.99));
  report.layer("serve.exec_ms_p50", median(exec));
  report_counter_layers(before, after, report);
  report.layer("chain.executed_mmac_per_req", ratio(macs, n) / 1e6);
  report.layer("chain.result_mb_per_req", ratio(bytes, n) / (1024.0 * 1024.0));
  report.layer("chain.served_gmac_per_s", throughput.value * ratio(macs, n) / 1e9);
  report.layer("net.gateway_self_ms_p50", median(gateway_self));
  report.layer("net.transport_ms_p50", median(transport));
  report.layer("net.metrics_scrape_ms_p50", median(scrape_ms));
  report.layer("net.json_parse_us_p50", median(parse_us));
  report.layer("journal.records_per_req", ratio(records, per_req));
  report.layer("journal.bytes_per_req",
               ratio(static_cast<double>(stats_after.journal.bytes_appended -
                                         stats_before.journal.bytes_appended),
                     per_req));
  report.layer("journal.fsyncs_per_kreq",
               1e3 * ratio(static_cast<double>(stats_after.journal.fsyncs -
                                               stats_before.journal.fsyncs),
                           per_req));
  report.layer("journal.recover_ms_p50", median(recover_ms));
  report.not_exercised({"serve.", "dataflow.", "dse."});

  for (std::size_t i = 0; i < samples.size(); ++i) {
    const WireSample& s = samples[i];
    if (s.phase != kMeasured || s.kind == Kind::kScrape || !s.ok()) continue;
    const auto track = static_cast<std::int64_t>(i) + 1;
    const std::int64_t http = trace.span("http", s.send, s.recv, 0, track, track);
    // The gateway's own span ends as the response is read; queue and
    // exec are placed from the response's queue_ms / wall_ms.
    const auto gw_begin = after_ms(s.recv, -s.gateway_ms);
    const std::int64_t gw =
        trace.span("gateway", gw_begin, s.recv, http, track, track);
    const auto exec_begin = after_ms(gw_begin, s.queue_ms);
    trace.span("queue", gw_begin, exec_begin, gw, track, track);
    trace.span("exec", exec_begin, after_ms(exec_begin, s.wall_ms), gw, track,
               track);
  }
  std::vector<ReplayCandidate> replayable;
  for (std::size_t i = 0; i < verified.size(); ++i) {
    ReplayCandidate rc;
    rc.model = &journaled[i];
    rc.input = &verified[i]->input;
    rc.accelerator = chip_config(fleet, verified[i]->chip_name);
    rc.digest = refs[i].digest;
    rc.request = static_cast<std::int64_t>(verified[i]->tag);
    replayable.push_back(rc);
  }
  replay_sample(replayable, cfg, trace, report);
}

}  // namespace bench
