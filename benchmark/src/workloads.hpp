// The four workloads. Each builds its state from the run's seed (median
// of repeated cold set-ups), warms up, measures its timed phases, checks
// every output it can against a direct reference, and fills the report.
// Why each workload exists is in README.md.
#pragma once

#include "harness.hpp"

namespace bench {

// Open-loop Poisson traffic of small pooled LeNet/CIFAR requests into a
// preemptive 3-chip Fleet, then a closed-loop capacity phase.
void run_fleet_small(const RunConfig& cfg, Report& report, Trace& trace);

// Closed loop of 0.5-1 GMAC AlexNet/VGG-16 requests on one InferenceServer.
void run_engine_heavy(const RunConfig& cfg, Report& report, Trace& trace);

// Keep-alive HTTP clients against a Gateway over a journaling Fleet,
// with /metrics scrapes, probes, an identity pass and recovery drills.
void run_gateway_journal(const RunConfig& cfg, Report& report, Trace& trace);

// Repeated full-grid DesignSearch over AlexNet.
void run_dse_alexnet(const RunConfig& cfg, Report& report, Trace& trace);

}  // namespace bench
