// Gateway — the HTTP/JSON front door over a serve::Fleet.
//
// Three endpoints:
//   POST /v1/submit   {"model": "alexnet", "batch": 4, "priority": 1,
//                      "deadline_ms": 250, "exec_mode": "analytical",
//                      "admission": true}
//                     -> blocks on the fleet future and answers the full
//                        outcome: {"id", "status", "chip", "wall_ms",
//                        "queue_ms", "modelled_seconds", "preemptions",
//                        "resumed", "deadline_missed", "deadline_expired",
//                        "completed_layers", "cycles", "digest", ...}.
//                        `id` is the request's fleet-wide tag, the id
//                        its journal records carry.
//                        `cycles` and `digest` (FNV-1a over the final
//                        activations) make bit-identity checkable over
//                        the wire: the same request submitted directly
//                        via Fleet::submit must produce the same pair.
//   GET  /metrics     Prometheus text exposition of FleetStats,
//                     per-chip ServerStats, PlanCacheStats, the HTTP
//                     server's own counters, and per-priority-tier
//                     latency histograms (buckets + p50/p99/p999).
//   GET  /healthz     {"status": "ok"} — liveness only.
//
// Validation is strict: unknown body keys, wrong types, unknown models,
// out-of-range batches and a priority outside [0, kPriorityTiers) are
// answered 400 with a reason, before anything is dispatched. Nothing a
// client sends can grow the gateway or the fleet: the chip is the
// router's choice (there is no per-request array, so the plan cache
// holds only the fleet's chips), and the per-tier histograms are a fixed
// set of kPriorityTiers. A deadline_ms too large for the clock never
// expires; one in the past resolves kCancelled. A resolved future —
// kOk, kCancelled or kRejected — is a 200 whose "status" field carries
// the verdict; HTTP 5xx is reserved for requests that threw, so the
// soak driver's "zero 5xx" gate means "the serving stack never
// errored", not "no deadline was ever missed".
//
// Model instances are cached per (name, scale): GatewayOptions::
// model_scale runs named networks through channel_reduced_proxy so a
// soak of hundreds of requests executes in seconds while keeping every
// layer's geometry (and therefore the planning/routing behaviour).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.hpp"
#include "net/http_server.hpp"
#include "serve/fleet.hpp"
#include "serve/latency_histogram.hpp"

namespace chainnn::net {

// Scheduling tiers a client may ask for: "priority" is 0..7.
inline constexpr std::int32_t kPriorityTiers = 8;
// Batch sizes a client may ask for: "batch" is 1..64.
inline constexpr std::int64_t kMaxBatch = 64;

struct GatewayOptions {
  HttpServerOptions http;
  // > 1 serves channel-reduced proxies of the named models (see
  // serve::channel_reduced_proxy); 1 serves the full networks.
  std::int64_t model_scale = 1;
};

struct GatewayStats {
  std::int64_t submits_ok = 0;         // future resolved kOk
  std::int64_t submits_cancelled = 0;  // future resolved kCancelled
  std::int64_t submits_rejected = 0;   // future resolved kRejected
  std::int64_t submits_failed = 0;     // future threw -> answered 500
  std::int64_t bad_requests = 0;       // body validation failures -> 400
  HttpServerStats http;
};

class Gateway {
 public:
  // Binds and starts serving immediately (throws on bind failure, like
  // HttpServer). The fleet must outlive the gateway.
  explicit Gateway(serve::Fleet& fleet, GatewayOptions options = {});

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] GatewayStats stats() const;

  // The /metrics payload (exposed for tests that cross-check the scrape
  // against FleetStats without going through a socket).
  [[nodiscard]] std::string metrics_text() const;

  void stop() { server_->stop(); }

 private:
  HttpResponse handle(const HttpRequest& request);
  HttpResponse handle_submit(const HttpRequest& request);

  serve::Fleet& fleet_;
  GatewayOptions opts_;

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<const nn::NetworkModel>> models_
      CHAINNN_GUARDED_BY(mu_);
  // One latency histogram per priority tier. Lock-free (see
  // serve/latency_histogram.hpp), so not guarded by mu_.
  std::array<serve::LatencyHistogram, kPriorityTiers> tiers_;
  std::int64_t submits_ok_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::int64_t submits_cancelled_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::int64_t submits_rejected_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::int64_t submits_failed_ CHAINNN_GUARDED_BY(mu_) = 0;
  std::int64_t bad_requests_ CHAINNN_GUARDED_BY(mu_) = 0;

  std::unique_ptr<HttpServer> server_;  // last: stops before members die
};

// FNV-1a 64-bit digest over a run's final activations — the wire-level
// bit-identity witness. Exposed so tests and the soak driver can compute
// the expected digest from a direct Fleet::submit result.
[[nodiscard]] std::uint64_t run_digest(const chain::NetworkRunResult& run);
// Total cycles across the run's layers (the "cycles" response field).
[[nodiscard]] std::int64_t run_cycles(const chain::NetworkRunResult& run);

[[nodiscard]] const char* request_status_name(serve::RequestStatus status);

}  // namespace chainnn::net
