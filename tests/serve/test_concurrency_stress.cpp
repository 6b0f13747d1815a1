// Concurrency stress suite — small, deterministic-outcome hammering of
// the stacks whose lock discipline the thread-safety annotations pin
// statically and the TSan lane checks dynamically (this suite is the
// core of `ctest -L concurrency`). Iteration counts are deliberately
// modest: under TSan every interleaving is instrumented, and the point
// is to cross real thread boundaries — submit/cancel/preempt storms,
// HTTP scrapes racing submits — not to soak. Assertions stick to
// invariants that hold for every legal interleaving (conservation of
// request counts, monotone stats, parsed scrapes), so the suite is
// schedule-independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/gateway.hpp"
#include "net/http_client.hpp"
#include "serve/fleet.hpp"

namespace chainnn::serve {
namespace {

constexpr int kThreads = 8;

nn::NetworkModel two_layer_net() {
  nn::NetworkModel net;
  net.name = "stress";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 3;
  l1.in_height = l1.in_width = 8;
  l1.kernel = 3;
  l1.pad = 1;
  l1.validate();
  nn::ConvLayerParams l2 = l1;
  l2.name = "c2";
  l2.in_channels = 3;
  l2.out_channels = 2;
  l2.validate();
  net.conv_layers = {l1, l2};
  return net;
}

// Submit / cancel / preempt storm: 8 submitter threads mixing priority
// tiers, mid-flight token cancellations and already-expired deadlines
// against a preemptive fleet. Every future must resolve, and the fleet's
// books must conserve: submitted == completed + cancelled + failed.
TEST(ConcurrencyStress, FleetSubmitCancelPreemptStorm) {
  FleetOptions fo;
  fo.threads_per_chip = 2;
  fo.preemption = true;
  Fleet fleet(fo);
  const nn::NetworkModel net = two_layer_net();

  constexpr int kPerThread = 4;
  std::atomic<int> resolved{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RequestOptions ro;
        ro.priority = (t + i) % 3;
        std::shared_ptr<std::atomic<bool>> token;
        if (i % 4 == 1) {
          // Cancelled while (possibly) queued or running.
          token = std::make_shared<std::atomic<bool>>(false);
          ro.cancel = token;
        } else if (i % 4 == 2) {
          ro.deadline_ms = -1.0;  // dead on arrival at pickup
        }
        std::future<InferenceResult> f = fleet.submit(net, /*batch=*/1, ro);
        if (token) token->store(true, std::memory_order_relaxed);
        const InferenceResult r = f.get();  // must always resolve
        EXPECT_TRUE(r.status == RequestStatus::kOk ||
                    r.status == RequestStatus::kCancelled)
            << static_cast<int>(r.status);
        if (r.status == RequestStatus::kOk)
          EXPECT_EQ(r.completed_layers, 2);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& th : threads) th.join();
  fleet.wait_idle();

  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.completed + stats.cancelled, stats.submitted);
  // Every chip's modelled backlog fully retired after wait_idle().
  for (const double backlog : fleet.router().backlog_seconds())
    EXPECT_NEAR(backlog, 0.0, 1e-9);
}

// Concurrent gateway traffic: submitters POSTing /v1/submit while
// scrapers GET /metrics, all over live sockets. Answers must be 200s
// (the scrape never observes a torn state that breaks exposition) and
// the final books must balance.
TEST(ConcurrencyStress, GatewaySubmitsRacingMetricsScrapes) {
  serve::Fleet fleet;
  net::GatewayOptions go;
  go.model_scale = 4;  // channel-reduced lenet keeps each submit short
  net::Gateway gateway(fleet, go);

  constexpr int kSubmitters = 5;
  constexpr int kScrapers = 4;  // 9 client threads total
  constexpr int kPerThread = 3;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters + kScrapers);
  for (int t = 0; t < kSubmitters; ++t)
    threads.emplace_back([&] {
      net::HttpClient client("127.0.0.1", gateway.port());
      for (int i = 0; i < kPerThread; ++i) {
        net::HttpResponse resp;
        if (!client.post_json("/v1/submit",
                              R"({"model": "lenet", "batch": 1})", &resp) ||
            resp.status != 200 ||
            resp.body.find("\"status\": \"ok\"") == std::string::npos)
          bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int t = 0; t < kScrapers; ++t)
    threads.emplace_back([&] {
      net::HttpClient client("127.0.0.1", gateway.port());
      for (int i = 0; i < kPerThread; ++i) {
        net::HttpResponse resp;
        if (!client.get("/metrics", &resp) || resp.status != 200 ||
            resp.body.find("chainnn_gateway_submits_total") ==
                std::string::npos)
          bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad.load(), 0);
  fleet.wait_idle();
  const net::GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.submits_ok, kSubmitters * kPerThread);
  EXPECT_EQ(stats.submits_failed, 0);
  EXPECT_EQ(stats.bad_requests, 0);
  EXPECT_EQ(stats.http.responses_5xx, 0);
  // One final scrape agrees with the struct-level stats.
  net::HttpClient client("127.0.0.1", gateway.port());
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/metrics", &resp)) << client.error();
  EXPECT_NE(resp.body.find("chainnn_gateway_submits_total{outcome=\"ok\"} " +
                           std::to_string(kSubmitters * kPerThread)),
            std::string::npos);
  gateway.stop();
}

}  // namespace
}  // namespace chainnn::serve
