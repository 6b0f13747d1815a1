// Gateway integration over real sockets: routing/validation at the
// front door, wire responses bit-identical to direct Fleet::submit
// (the acceptance criterion of the HTTP layer — serialization must not
// perturb execution), a /metrics scrape that agrees with FleetStats,
// and sanitizer-clean concurrent connections.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/gateway.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "serve/durable.hpp"
#include "serve/sweep_driver.hpp"

namespace chainnn::net {
namespace {

constexpr std::int64_t kScale = 2;  // channel-reduced proxies keep it quick

GatewayOptions quick_gateway_options() {
  GatewayOptions go;
  go.model_scale = kScale;
  return go;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// First sample value for a metric line starting with `prefix`
// (e.g. "chainnn_fleet_completed_total " or
// "chainnn_chip_routed_total{chip=\"pe288\"}"). Returns NaN when absent.
double metric_value(const std::string& text, const std::string& prefix) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.rfind(prefix, 0) != 0) continue;
    return std::stod(line.substr(line.rfind(' ') + 1));
  }
  return std::nan("");
}

TEST(Gateway, HealthzRoutingAndMethodDiscipline) {
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  HttpResponse resp;
  ASSERT_TRUE(client.get("/healthz", &resp)) << client.error();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "{\"status\": \"ok\"}");

  ASSERT_TRUE(client.get("/no/such/endpoint", &resp)) << client.error();
  EXPECT_EQ(resp.status, 404);

  ASSERT_TRUE(client.post_json("/healthz", "{}", &resp)) << client.error();
  EXPECT_EQ(resp.status, 405);
  ASSERT_TRUE(client.get("/v1/submit", &resp)) << client.error();
  EXPECT_EQ(resp.status, 405);

  // Keep-alive: all four exchanges rode one connection.
  EXPECT_EQ(gateway.stats().http.connections_accepted, 1);
  EXPECT_EQ(gateway.stats().http.requests, 4);
}

TEST(Gateway, MalformedSubmitBodiesAre400NotCrashes) {
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  const char* bad_bodies[] = {
      "",                                      // empty
      "not json",                              // parse error
      "[1, 2]",                                // not an object
      "{}",                                    // missing model
      "{\"model\": 3}",                        // model not a string
      "{\"model\": \"resnet152\"}",            // unknown model
      "{\"model\": \"lenet\", \"deadline\": 5}",        // typo'd key
      "{\"model\": \"lenet\", \"batch\": 0}",           // batch < 1
      "{\"model\": \"lenet\", \"batch\": 65}",          // above kMaxBatch
      "{\"model\": \"lenet\", \"batch\": 1e9}",         // batch not integral
      "{\"model\": \"lenet\", \"priority\": \"high\"}",  // wrong type
      "{\"model\": \"lenet\", \"priority\": -1}",  // below tier 0
      "{\"model\": \"lenet\", \"priority\": 8}",   // above tier 7
      "{\"model\": \"lenet\", \"exec_mode\": \"quantum\"}",
      "{\"model\": \"lenet\", \"array\": {\"num_pes\": 288}}",  // no such key
  };
  for (const char* body : bad_bodies) {
    HttpResponse resp;
    ASSERT_TRUE(client.post_json("/v1/submit", body, &resp))
        << body << ": " << client.error();
    EXPECT_EQ(resp.status, 400) << body << " -> " << resp.body;
    const auto parsed = Json::parse(resp.body);
    ASSERT_TRUE(parsed.has_value()) << body;
    EXPECT_NE(parsed->find("error"), nullptr) << body;
  }
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.bad_requests,
            static_cast<std::int64_t>(std::size(bad_bodies)));
  EXPECT_EQ(stats.submits_ok, 0);
  // Nothing malformed ever reached the fleet.
  EXPECT_EQ(fleet.stats().submitted, 0);
}

TEST(Gateway, RawProtocolGarbageIs400AndConnectionCloses) {
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  // serialize_request will happily emit a malformed request line for a
  // method with a space — the server-side parser must answer 400.
  HttpRequest req;
  req.method = "TWO TOKENS";
  req.target = "/healthz";
  HttpResponse resp;
  ASSERT_TRUE(client.request(req, &resp)) << client.error();
  EXPECT_EQ(resp.status, 400);
  EXPECT_FALSE(client.connected());  // server said Connection: close
  EXPECT_EQ(gateway.stats().http.parse_errors, 1);

  // The client transparently reconnects and the server still serves.
  ASSERT_TRUE(client.get("/healthz", &resp)) << client.error();
  EXPECT_EQ(resp.status, 200);
}

TEST(Gateway, SubmitIsBitIdenticalToDirectFleetSubmit) {
  // Twin fleets, identical options: the gateway drives one over HTTP,
  // the test drives the other directly. Sequential submission (each
  // response awaited before the next submit) makes routing — and
  // therefore tags and generated inputs — identical, so cycles and the
  // activations digest must match bit for bit.
  serve::Fleet wire_fleet;
  serve::Fleet direct_fleet;
  Gateway gateway(wire_fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  struct Case {
    const char* body;
    const char* model;
    std::int64_t batch;
    std::int32_t priority;
  };
  const Case cases[] = {
      {"{\"model\": \"lenet\"}", "lenet", 1, 0},
      {"{\"model\": \"lenet\", \"batch\": 2, \"priority\": 1}", "lenet", 2, 1},
      {"{\"model\": \"cifar10\", \"batch\": 1}", "cifar10", 1, 0},
      {"{\"model\": \"lenet\", \"exec_mode\": \"analytical\"}", "lenet", 1, 0},
  };

  for (const Case& c : cases) {
    HttpResponse resp;
    ASSERT_TRUE(client.post_json("/v1/submit", c.body, &resp))
        << c.body << ": " << client.error();
    ASSERT_EQ(resp.status, 200) << c.body << " -> " << resp.body;
    const auto wire = Json::parse(resp.body);
    ASSERT_TRUE(wire.has_value()) << resp.body;

    const nn::NetworkModel proxy =
        serve::channel_reduced_proxy(nn::model_by_name(c.model), kScale);
    serve::RequestOptions options;
    options.priority = c.priority;
    const serve::InferenceResult direct =
        direct_fleet.submit(proxy, c.batch, options).get();

    ASSERT_EQ(direct.status, serve::RequestStatus::kOk) << c.body;
    EXPECT_EQ(wire->find("status")->as_string(), "ok") << c.body;
    EXPECT_EQ(wire->find("chip")->as_string(), direct.chip) << c.body;
    EXPECT_EQ(wire->find("id")->as_int(),
              static_cast<std::int64_t>(direct.tag))
        << c.body;
    EXPECT_EQ(wire->find("cycles")->as_int(), run_cycles(direct.run))
        << c.body;
    EXPECT_EQ(wire->find("digest")->as_string(), hex16(run_digest(direct.run)))
        << c.body;
    EXPECT_EQ(wire->find("completed_layers")->as_int(),
              direct.completed_layers)
        << c.body;
    EXPECT_DOUBLE_EQ(wire->find("modelled_seconds")->as_double(),
                     direct.modelled_seconds)
        << c.body;
  }
}

// Each chip numbers its own requests from 1, so two requests served on
// different chips share a per-chip id. The wire id is the fleet-wide
// tag instead: distinct, and the tag the request's SUBMIT record carries.
TEST(Gateway, IdsAreFleetWideTagsAcrossChips) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("chainnn_gateway_ids_" + std::to_string(::getpid()) + ".jrnl"))
          .string();
  serve::FleetOptions fo;
  fo.journal = std::make_shared<serve::Journal>(serve::JournalOptions{path, 0});
  serve::Fleet fleet(fo);
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  struct Case {
    const char* body;
    const char* model;
    std::int64_t batch;
  };
  const Case cases[] = {
      {"{\"model\": \"lenet\"}", "lenet", 1},
      {"{\"model\": \"cifar10\"}", "cifar10", 1},
  };
  // On an idle fleet the router places the two on different chips.
  std::string planned[2];
  for (int i = 0; i < 2; ++i)
    planned[i] = fleet
                     .plan_route(serve::channel_reduced_proxy(
                                     nn::model_by_name(cases[i].model), kScale),
                                 cases[i].batch)
                     .chip_name;
  ASSERT_NE(planned[0], planned[1]);

  std::int64_t ids[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    HttpResponse resp;
    ASSERT_TRUE(client.post_json("/v1/submit", cases[i].body, &resp))
        << client.error();
    ASSERT_EQ(resp.status, 200) << resp.body;
    const auto wire = Json::parse(resp.body);
    ASSERT_TRUE(wire.has_value()) << resp.body;
    EXPECT_EQ(wire->find("chip")->as_string(), planned[i]);
    ids[i] = wire->find("id")->as_int();
  }
  EXPECT_NE(ids[0], ids[1]);

  // Each id names the SUBMIT record of its own request.
  std::map<std::int64_t, std::string> submitted_on;
  for (const serve::JournalRecord& rec :
       serve::read_journal_file(path).records)
    if (rec.type == serve::RecordType::kSubmit) {
      const serve::SubmitRecord s = serve::decode_submit(rec.payload);
      submitted_on[static_cast<std::int64_t>(s.tag)] = s.chip_name;
    }
  ASSERT_EQ(submitted_on.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(submitted_on.count(ids[i]), 1u) << "id " << ids[i];
    EXPECT_EQ(submitted_on[ids[i]], planned[i]);
  }
  std::filesystem::remove(path);
}

TEST(Gateway, PastDeadlineSubmitResolvesCancelledOverTheWire) {
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  HttpResponse resp;
  ASSERT_TRUE(client.post_json(
      "/v1/submit", "{\"model\": \"lenet\", \"deadline_ms\": -1}", &resp))
      << client.error();
  ASSERT_EQ(resp.status, 200) << resp.body;  // resolved, not errored
  const auto wire = Json::parse(resp.body);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->find("status")->as_string(), "cancelled");
  EXPECT_TRUE(wire->find("deadline_expired")->as_bool());
  EXPECT_FALSE(wire->find("deadline_missed")->as_bool());
  EXPECT_EQ(gateway.stats().submits_cancelled, 1);
}

// A budget too large for the clock never expires: the request is
// served, not cancelled by an overflowed deadline.
TEST(Gateway, HugeDeadlineIsServed) {
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  HttpResponse resp;
  ASSERT_TRUE(client.post_json(
      "/v1/submit", "{\"model\": \"lenet\", \"deadline_ms\": 1e300}", &resp))
      << client.error();
  ASSERT_EQ(resp.status, 200) << resp.body;
  const auto wire = Json::parse(resp.body);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->find("status")->as_string(), "ok");
  EXPECT_FALSE(wire->find("deadline_expired")->as_bool());
  EXPECT_FALSE(wire->find("deadline_missed")->as_bool());
  EXPECT_EQ(gateway.stats().submits_ok, 1);
}

// A client cannot choose the chip: an "array" body is an unknown key,
// refused before anything is planned, so no sequence of distinct arrays
// grows the fleet's plan cache.
TEST(Gateway, ArrayBodiesAre400AndPlanNothing) {
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  constexpr int kArrays = 120;
  for (int i = 0; i < kArrays; ++i) {
    const std::string body =
        "{\"model\": \"lenet\", \"array\": {\"num_pes\": " +
        std::to_string(32 + 8 * i) + ", \"clock_hz\": " +
        std::to_string(100 + i) + "e6}}";
    HttpResponse resp;
    ASSERT_TRUE(client.post_json("/v1/submit", body, &resp))
        << body << ": " << client.error();
    EXPECT_EQ(resp.status, 400) << body << " -> " << resp.body;
  }

  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.bad_requests, kArrays);
  EXPECT_EQ(stats.submits_failed, 0);
  EXPECT_EQ(stats.http.responses_5xx, 0);
  EXPECT_EQ(fleet.plan_cache()->stats().entries, 0u);
  EXPECT_EQ(fleet.stats().submitted, 0);
}

TEST(Gateway, MetricsScrapeAgreesWithFleetStats) {
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());
  HttpClient client("127.0.0.1", gateway.port());

  HttpResponse resp;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        client.post_json("/v1/submit", "{\"model\": \"lenet\"}", &resp))
        << client.error();
    ASSERT_EQ(resp.status, 200) << resp.body;
  }

  ASSERT_TRUE(client.get("/metrics", &resp)) << client.error();
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type.rfind("text/plain", 0), 0u);
  const std::string& text = resp.body;

  const serve::FleetStats stats = fleet.stats();
  EXPECT_EQ(metric_value(text, "chainnn_fleet_submitted_total "),
            static_cast<double>(stats.submitted));
  EXPECT_EQ(metric_value(text, "chainnn_fleet_completed_total "),
            static_cast<double>(stats.completed));
  EXPECT_EQ(metric_value(text, "chainnn_fleet_cancelled_total "),
            static_cast<double>(stats.cancelled));
  EXPECT_EQ(metric_value(text, "chainnn_plan_cache_hits_total "),
            static_cast<double>(stats.plan_cache.hits));
  EXPECT_EQ(metric_value(text, "chainnn_plan_cache_misses_total "),
            static_cast<double>(stats.plan_cache.misses));
  double routed = 0.0;
  for (const auto& chip : stats.chips) {
    const double v = metric_value(
        text, "chainnn_chip_routed_total{chip=\"" + chip.name + "\"}");
    EXPECT_EQ(v, static_cast<double>(chip.routed)) << chip.name;
    routed += v;
  }
  EXPECT_EQ(routed, 3.0);
  // The gateway's own accounting: 3 ok submits, all on tier 0.
  EXPECT_EQ(metric_value(text, "chainnn_gateway_submits_total{outcome=\"ok\"}"),
            3.0);
  EXPECT_EQ(metric_value(
                text, "chainnn_gateway_request_latency_ms_count{tier=\"0\"}"),
            3.0);
  EXPECT_EQ(
      metric_value(
          text, "chainnn_gateway_request_latency_ms_bucket{tier=\"0\",le=\"+Inf\"}"),
      3.0);
  // Quantiles are present and ordered.
  const double p50 = metric_value(
      text, "chainnn_gateway_latency_quantile_ms{tier=\"0\",quantile=\"0.5\"}");
  const double p999 = metric_value(
      text,
      "chainnn_gateway_latency_quantile_ms{tier=\"0\",quantile=\"0.999\"}");
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p999, p50);
}

TEST(Gateway, ConnectionCapAnswers503) {
  serve::Fleet fleet;
  GatewayOptions go = quick_gateway_options();
  go.http.max_connections = 1;
  Gateway gateway(fleet, go);

  HttpClient first("127.0.0.1", gateway.port());
  HttpResponse resp;
  ASSERT_TRUE(first.get("/healthz", &resp)) << first.error();
  ASSERT_EQ(resp.status, 200);  // first connection is now held open

  HttpClient second("127.0.0.1", gateway.port());
  ASSERT_TRUE(second.get("/healthz", &resp)) << second.error();
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(gateway.stats().http.connections_rejected, 1);

  // The held connection still works.
  ASSERT_TRUE(first.get("/healthz", &resp)) << first.error();
  EXPECT_EQ(resp.status, 200);
}

TEST(Gateway, ConcurrentConnectionsServeCleanly) {
  // Sanitizer target (runs under ASan/UBSan in sanitize.yml): several
  // client threads hammer submits and scrapes over their own keep-alive
  // connections; every exchange must succeed and the books must balance.
  serve::Fleet fleet;
  Gateway gateway(fleet, quick_gateway_options());

  constexpr int kClients = 6;
  constexpr int kRequestsEach = 3;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kClients; ++t)
    threads.emplace_back([&gateway, &ok] {
      HttpClient client("127.0.0.1", gateway.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        HttpResponse resp;
        if (!client.post_json("/v1/submit", "{\"model\": \"lenet\"}", &resp) ||
            resp.status != 200)
          return;
        if (!client.get("/metrics", &resp) || resp.status != 200) return;
        ++ok;
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);

  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.submits_ok, kClients * kRequestsEach);
  EXPECT_EQ(stats.http.parse_errors, 0);
  EXPECT_EQ(stats.http.responses_5xx, 0);
  EXPECT_EQ(fleet.stats().completed, kClients * kRequestsEach);
  gateway.stop();  // explicit stop with threads recently active
}

}  // namespace
}  // namespace chainnn::net
