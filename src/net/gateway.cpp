#include "net/gateway.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <utility>

#include "net/json.hpp"
#include "serve/sweep_driver.hpp"

namespace chainnn::net {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

HttpResponse json_error(int status, std::string_view message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = "{\"error\": " + json_quote(message) + "}";
  return resp;
}

bool known_model(const std::string& name) {
  return name == "alexnet" || name == "vgg16" || name == "lenet" ||
         name == "mnist" || name == "cifar10" || name == "cifar";
}

std::string digest_hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return std::string(buf);
}

}  // namespace

std::uint64_t run_digest(const chain::NetworkRunResult& run) {
  // FNV-1a 64-bit over the little-endian bytes of the final activations
  // (explicit byte order keeps the digest platform-independent).
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const std::int16_t v : run.final_activations.data()) {
    const auto u = static_cast<std::uint16_t>(v);
    mix(static_cast<std::uint8_t>(u & 0xFF));
    mix(static_cast<std::uint8_t>(u >> 8));
  }
  return h;
}

std::int64_t run_cycles(const chain::NetworkRunResult& run) {
  std::int64_t cycles = 0;
  for (const auto& layer : run.layers) cycles += layer.run.stats.total_cycles();
  return cycles;
}

const char* request_status_name(serve::RequestStatus status) {
  switch (status) {
    case serve::RequestStatus::kOk: return "ok";
    case serve::RequestStatus::kCancelled: return "cancelled";
    case serve::RequestStatus::kRejected: return "rejected";
    case serve::RequestStatus::kFailed: return "failed";
  }
  return "unknown";
}

Gateway::Gateway(serve::Fleet& fleet, GatewayOptions options)
    : fleet_(fleet), opts_(std::move(options)) {
  server_ = std::make_unique<HttpServer>(
      opts_.http,
      [this](const HttpRequest& request) { return handle(request); });
}

GatewayStats Gateway::stats() const {
  GatewayStats out;
  {
    MutexLock lock(mu_);
    out.submits_ok = submits_ok_;
    out.submits_cancelled = submits_cancelled_;
    out.submits_rejected = submits_rejected_;
    out.submits_failed = submits_failed_;
    out.bad_requests = bad_requests_;
  }
  out.http = server_->stats();
  return out;
}

HttpResponse Gateway::handle(const HttpRequest& request) {
  if (request.target == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD")
      return json_error(405, "use GET " + request.target);
    HttpResponse resp;
    resp.body = "{\"status\": \"ok\"}";
    return resp;
  }
  if (request.target == "/metrics") {
    if (request.method != "GET" && request.method != "HEAD")
      return json_error(405, "use GET " + request.target);
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = metrics_text();
    return resp;
  }
  if (request.target == "/v1/submit") {
    if (request.method != "POST")
      return json_error(405, "use POST " + request.target);
    return handle_submit(request);
  }
  return json_error(404, "no such endpoint: " + request.target);
}

HttpResponse Gateway::handle_submit(const HttpRequest& request) {
  const auto bad = [this](std::string_view why) {
    {
      MutexLock lock(mu_);
      ++bad_requests_;
    }
    return json_error(400, why);
  };

  std::string parse_error;
  const std::optional<Json> body = Json::parse(request.body, &parse_error);
  if (!body) return bad("invalid JSON body: " + parse_error);
  if (!body->is_object()) return bad("request body must be a JSON object");

  // Strict key set: a typo like "deadline" silently running without a
  // deadline is worse than a 400.
  for (const auto& [key, value] : body->as_object()) {
    if (key != "model" && key != "batch" && key != "priority" &&
        key != "deadline_ms" && key != "exec_mode" && key != "admission")
      return bad("unknown key \"" + key + "\"");
  }

  const Json* model_field = body->find("model");
  if (!model_field || !model_field->is_string())
    return bad("\"model\" (string) is required");
  const std::string& model_name = model_field->as_string();
  if (!known_model(model_name))
    return bad("unknown model \"" + model_name +
               "\"; valid: alexnet vgg16 lenet cifar10");

  std::int64_t batch = 1;
  if (const Json* f = body->find("batch")) {
    if (!f->is_integer()) return bad("\"batch\" must be an integer");
    batch = f->as_int();
    if (batch < 1 || batch > kMaxBatch)
      return bad("\"batch\" must be in [1, " + std::to_string(kMaxBatch) +
                 "]");
  }

  serve::RequestOptions options;
  if (const Json* f = body->find("priority")) {
    if (!f->is_integer()) return bad("\"priority\" must be an integer");
    const std::int64_t p = f->as_int();
    if (p < 0 || p >= kPriorityTiers)
      return bad("\"priority\" must be in [0, " +
                 std::to_string(kPriorityTiers - 1) + "]");
    options.priority = static_cast<std::int32_t>(p);
  }
  if (const Json* f = body->find("deadline_ms")) {
    if (!f->is_number()) return bad("\"deadline_ms\" must be a number");
    options.deadline_ms = f->as_double();
  }
  if (const Json* f = body->find("exec_mode")) {
    if (!f->is_string()) return bad("\"exec_mode\" must be a string");
    const std::string& mode = f->as_string();
    if (mode == "analytical")
      options.exec_mode = chain::ExecMode::kAnalytical;
    else if (mode == "cycle_accurate" || mode == "cycle-accurate")
      options.exec_mode = chain::ExecMode::kCycleAccurate;
    else
      return bad("\"exec_mode\" must be \"analytical\" or \"cycle_accurate\"");
  }
  if (const Json* f = body->find("admission")) {
    if (!f->is_bool()) return bad("\"admission\" must be a boolean");
    options.admission = f->as_bool();
  }

  // Resolve (and cache) the served model.
  std::shared_ptr<const nn::NetworkModel> model;
  {
    MutexLock lock(mu_);
    auto& slot = models_[model_name];
    if (!slot) {
      nn::NetworkModel net = nn::model_by_name(model_name);
      if (opts_.model_scale > 1)
        net = serve::channel_reduced_proxy(net, opts_.model_scale);
      slot = std::make_shared<const nn::NetworkModel>(std::move(net));
    }
    model = slot;
  }

  const auto t0 = Clock::now();
  serve::InferenceResult result;
  try {
    result = fleet_.submit(*model, batch, options).get();
  } catch (const std::exception& e) {
    {
      MutexLock lock(mu_);
      ++submits_failed_;
    }
    return json_error(500, std::string("request failed: ") + e.what());
  }
  const double gateway_ms = ms_since(t0);
  tiers_[static_cast<std::size_t>(options.priority)].record(gateway_ms);
  {
    MutexLock lock(mu_);
    switch (result.status) {
      case serve::RequestStatus::kOk: ++submits_ok_; break;
      case serve::RequestStatus::kCancelled: ++submits_cancelled_; break;
      case serve::RequestStatus::kRejected: ++submits_rejected_; break;
      case serve::RequestStatus::kFailed: ++submits_failed_; break;
    }
  }

  JsonObject out;
  out.emplace_back("id", Json(static_cast<std::int64_t>(result.tag)));
  out.emplace_back("status", Json(request_status_name(result.status)));
  out.emplace_back("chip", Json(result.chip));
  out.emplace_back("exec_mode", Json(chain::exec_mode_name(result.exec_mode)));
  out.emplace_back("wall_ms", Json(result.wall_ms));
  out.emplace_back("queue_ms", Json(result.queue_ms));
  out.emplace_back("gateway_ms", Json(gateway_ms));
  out.emplace_back("modelled_seconds", Json(result.modelled_seconds));
  out.emplace_back("preemptions", Json(result.preemptions));
  out.emplace_back("resumed", Json(result.resumed));
  out.emplace_back("deadline_missed", Json(result.deadline_missed));
  out.emplace_back("deadline_expired", Json(result.deadline_expired));
  out.emplace_back("completed_layers", Json(result.completed_layers));
  out.emplace_back("cycles", Json(run_cycles(result.run)));
  out.emplace_back("digest", Json(digest_hex(run_digest(result.run))));

  HttpResponse resp;
  resp.body = Json(std::move(out)).dump();
  return resp;
}

// --- /metrics --------------------------------------------------------------

namespace {

class PromWriter {
 public:
  explicit PromWriter(std::string* out) : out_(*out) {}

  void family(std::string_view name, std::string_view type,
              std::string_view help) {
    out_ += "# HELP ";
    out_ += name;
    out_ += ' ';
    out_ += help;
    out_ += "\n# TYPE ";
    out_ += name;
    out_ += ' ';
    out_ += type;
    out_ += '\n';
  }

  void sample(std::string_view name, std::string_view labels, double value) {
    out_ += name;
    if (!labels.empty()) {
      out_ += '{';
      out_ += labels;
      out_ += '}';
    }
    out_ += ' ';
    out_ += json_number(value);  // shortest round-trip, Prometheus-safe
    out_ += '\n';
  }

  void counter(std::string_view name, std::string_view help, double value) {
    family(name, "counter", help);
    sample(name, "", value);
  }

  void gauge(std::string_view name, std::string_view help, double value) {
    family(name, "gauge", help);
    sample(name, "", value);
  }

 private:
  std::string& out_;
};

}  // namespace

std::string Gateway::metrics_text() const {
  std::string text;
  PromWriter w(&text);

  // -- gateway + HTTP front door ------------------------------------------
  {
    MutexLock lock(mu_);
    w.family("chainnn_gateway_submits_total", "counter",
             "Resolved /v1/submit requests by outcome.");
    w.sample("chainnn_gateway_submits_total", "outcome=\"ok\"",
             static_cast<double>(submits_ok_));
    w.sample("chainnn_gateway_submits_total", "outcome=\"cancelled\"",
             static_cast<double>(submits_cancelled_));
    w.sample("chainnn_gateway_submits_total", "outcome=\"rejected\"",
             static_cast<double>(submits_rejected_));
    w.sample("chainnn_gateway_submits_total", "outcome=\"failed\"",
             static_cast<double>(submits_failed_));
    w.counter("chainnn_gateway_bad_requests_total",
              "Submit bodies refused by validation (HTTP 400).",
              static_cast<double>(bad_requests_));
  }
  const HttpServerStats http = server_->stats();
  w.counter("chainnn_http_connections_accepted_total",
            "TCP connections accepted.",
            static_cast<double>(http.connections_accepted));
  w.counter("chainnn_http_connections_rejected_total",
            "TCP connections refused at the connection cap (HTTP 503).",
            static_cast<double>(http.connections_rejected));
  w.counter("chainnn_http_requests_total",
            "Complete HTTP requests parsed and handled.",
            static_cast<double>(http.requests));
  w.counter("chainnn_http_parse_errors_total",
            "Malformed HTTP requests answered 4xx/5xx by the parser.",
            static_cast<double>(http.parse_errors));
  w.counter("chainnn_http_responses_5xx_total",
            "Handler responses with a 5xx status.",
            static_cast<double>(http.responses_5xx));

  // -- fleet ---------------------------------------------------------------
  const serve::FleetStats fleet = fleet_.stats();
  w.counter("chainnn_fleet_submitted_total",
            "Requests submitted across all chips.",
            static_cast<double>(fleet.submitted));
  w.counter("chainnn_fleet_completed_total", "Requests resolved kOk.",
            static_cast<double>(fleet.completed));
  w.counter("chainnn_fleet_failed_total", "Requests that threw.",
            static_cast<double>(fleet.failed));
  w.counter("chainnn_fleet_cancelled_total", "Requests resolved kCancelled.",
            static_cast<double>(fleet.cancelled));
  w.counter("chainnn_fleet_rejected_total",
            "Requests refused by admission control at submit.",
            static_cast<double>(fleet.rejected));
  w.counter("chainnn_fleet_deadline_misses_total",
            "Requests completed after their deadline.",
            static_cast<double>(fleet.deadline_misses));
  w.counter("chainnn_fleet_deadline_expired_total",
            "Requests cancelled because their deadline passed.",
            static_cast<double>(fleet.deadline_expired));
  w.counter("chainnn_fleet_missed_deadlines_total",
            "deadline_misses + deadline_expired (the admission-gate figure).",
            static_cast<double>(fleet.missed_deadlines()));
  w.counter("chainnn_fleet_preemptions_total",
            "Running requests checkpointed for a higher tier.",
            static_cast<double>(fleet.preemptions));
  w.counter("chainnn_fleet_resumes_total",
            "Checkpointed requests picked back up.",
            static_cast<double>(fleet.resumes));
  w.counter("chainnn_fleet_fidelity_samples_total",
            "Requests re-run on the other engine for cross-checking.",
            static_cast<double>(fleet.fidelity_samples));
  w.counter("chainnn_fleet_fidelity_divergences_total",
            "Fidelity cross-checks that found a mismatch.",
            static_cast<double>(fleet.fidelity_divergences));
  w.gauge("chainnn_fleet_modelled_makespan_seconds",
          "Busiest chip's cumulative modelled busy seconds.",
          fleet.modelled_makespan_seconds());

  // -- durability (all zero for a fleet without a journal) -----------------
  w.counter("chainnn_journal_records_appended_total",
            "Records appended to the request journal.",
            static_cast<double>(fleet.journal.records_appended));
  w.counter("chainnn_journal_bytes_appended_total",
            "Framed journal bytes appended (excluding the header).",
            static_cast<double>(fleet.journal.bytes_appended));
  w.counter("chainnn_journal_fsyncs_total",
            "fsync() calls issued by the journal writer.",
            static_cast<double>(fleet.journal.fsyncs));
  w.counter("chainnn_fleet_recovered_requests_total",
            "In-flight requests replayed by Fleet::recover().",
            static_cast<double>(fleet.recovered_requests));
  w.counter("chainnn_fleet_checkpoint_handoffs_total",
            "Recovered checkpoints resumed on a different chip.",
            static_cast<double>(fleet.checkpoint_handoffs));

  // -- plan cache ----------------------------------------------------------
  w.counter("chainnn_plan_cache_hits_total", "Plan cache lookup hits.",
            static_cast<double>(fleet.plan_cache.hits));
  w.counter("chainnn_plan_cache_misses_total", "Plan cache lookup misses.",
            static_cast<double>(fleet.plan_cache.misses));
  w.gauge("chainnn_plan_cache_entries", "Plans currently cached.",
          static_cast<double>(fleet.plan_cache.entries));
  w.gauge("chainnn_plan_cache_hit_rate", "hits / lookups (0 when idle).",
          fleet.plan_cache.hit_rate());

  // -- per chip ------------------------------------------------------------
  w.family("chainnn_chip_routed_total", "counter",
           "Requests the router placed on this chip.");
  for (const auto& chip : fleet.chips)
    w.sample("chainnn_chip_routed_total", "chip=\"" + chip.name + "\"",
             static_cast<double>(chip.routed));
  w.family("chainnn_chip_completed_total", "counter",
           "Requests this chip resolved kOk.");
  for (const auto& chip : fleet.chips)
    w.sample("chainnn_chip_completed_total", "chip=\"" + chip.name + "\"",
             static_cast<double>(chip.server.completed));
  w.family("chainnn_chip_preemptions_total", "counter",
           "Preemptions on this chip.");
  for (const auto& chip : fleet.chips)
    w.sample("chainnn_chip_preemptions_total", "chip=\"" + chip.name + "\"",
             static_cast<double>(chip.server.preemptions));
  w.family("chainnn_chip_backlog_seconds", "gauge",
           "Modelled seconds still queued or running on this chip.");
  for (const auto& chip : fleet.chips)
    w.sample("chainnn_chip_backlog_seconds", "chip=\"" + chip.name + "\"",
             chip.backlog_seconds);
  w.family("chainnn_chip_dispatched_seconds_total", "counter",
           "Cumulative modelled seconds dispatched to this chip.");
  for (const auto& chip : fleet.chips)
    w.sample("chainnn_chip_dispatched_seconds_total",
             "chip=\"" + chip.name + "\"", chip.dispatched_seconds);
  w.family("chainnn_chip_peak_queue_depth", "gauge",
           "Deepest queue this chip has seen.");
  for (const auto& chip : fleet.chips)
    w.sample("chainnn_chip_peak_queue_depth", "chip=\"" + chip.name + "\"",
             static_cast<double>(chip.server.peak_queue_depth));

  // -- per-tier latency histograms ----------------------------------------
  w.family("chainnn_gateway_request_latency_ms", "histogram",
           "End-to-end /v1/submit latency (parse to future resolution).");
  // A tier is printed once it has a sample.
  std::vector<std::pair<std::int32_t, serve::LatencyHistogram::Snapshot>>
      tiers;
  for (std::int32_t priority = 0; priority < kPriorityTiers; ++priority) {
    serve::LatencyHistogram::Snapshot snap =
        tiers_[static_cast<std::size_t>(priority)].snapshot();
    if (snap.count > 0) tiers.emplace_back(priority, std::move(snap));
  }
  for (const auto& [priority, snap] : tiers) {
    const std::string tier = "tier=\"" + std::to_string(priority) + "\"";
    std::uint64_t cumulative = 0;
    for (int i = 0; i < serve::LatencyHistogram::kFiniteBuckets; ++i) {
      const std::uint64_t in_bucket = snap.counts[static_cast<std::size_t>(i)];
      cumulative += in_bucket;
      // Sparse emission: a bucket line only where the cumulative count
      // moves (plus +Inf below) keeps the scrape compact and stays a
      // valid non-decreasing Prometheus histogram.
      if (in_bucket == 0) continue;
      w.sample("chainnn_gateway_request_latency_ms_bucket",
               tier + ",le=\"" +
                   json_number(serve::LatencyHistogram::bucket_upper_ms(i)) +
                   "\"",
               static_cast<double>(cumulative));
    }
    w.sample("chainnn_gateway_request_latency_ms_bucket",
             tier + ",le=\"+Inf\"", static_cast<double>(snap.count));
    w.sample("chainnn_gateway_request_latency_ms_sum", tier, snap.sum_ms);
    w.sample("chainnn_gateway_request_latency_ms_count", tier,
             static_cast<double>(snap.count));
  }
  w.family("chainnn_gateway_latency_quantile_ms", "gauge",
           "Latency quantiles from the log-bucket histogram (upper bounds).");
  for (const auto& [priority, snap] : tiers) {
    const std::string tier = "tier=\"" + std::to_string(priority) + "\"";
    w.sample("chainnn_gateway_latency_quantile_ms",
             tier + ",quantile=\"0.5\"", snap.p50_ms());
    w.sample("chainnn_gateway_latency_quantile_ms",
             tier + ",quantile=\"0.99\"", snap.p99_ms());
    w.sample("chainnn_gateway_latency_quantile_ms",
             tier + ",quantile=\"0.999\"", snap.p999_ms());
  }

  return text;
}

}  // namespace chainnn::net
