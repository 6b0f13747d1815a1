// Measurement harness shared by the four benchmark workloads: run
// configuration, the one CPU the benchmark runs on and the meter that
// scales its timings to a reference speed, timed phases split into equal
// windows, quantiles from raw samples, outside-in spans exported as
// Chrome trace events, and the run report (end-to-end metrics, per-layer
// metrics, output checks and exact simulated invariants) written as one
// JSON object.
//
// Everything here sits outside the library: spans are taken around calls
// into public entry points, never inside them, so the program under test
// is the same binary code whether or not a run is traced.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/json.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline Clock::time_point after_ms(Clock::time_point t,
                                                double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

// Completions are observed by polling futures at most this far apart.
inline constexpr auto kPollQuantum = std::chrono::microseconds(100);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of the timed phase
  bool smoke = false;     // tiny shapes and durations, same code paths
  std::string trace_path;  // non-empty = traced run
  std::string workdir;     // scratch files (journals) live here

  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
  // Untimed warm-up before the timed phase.
  [[nodiscard]] double warmup_s() const { return smoke ? 0.2 : 3.0; }
};

// The benchmark runs on one CPU. The host it was built for is shared:
// another tenant's work on the same physical core (its SMT sibling)
// slows every cache-bound loop on a CPU by up to 2x, in stretches of
// milliseconds to minutes, independently on each CPU. A pure register
// loop keeps its speed; the program, the MAC kernel above all, does not.
// Pinned to one CPU, the program's threads and the HostMeter below share
// one core, so the meter sees every slowdown the program sees.
//
// Pins the calling thread, and every thread it starts afterwards, to the
// last CPU it may run on, and returns that CPU (-1 when the set cannot be
// read or changed). Call it before any thread starts.
int pin_to_one_cpu();

class ReferenceLoop;  // HostMeter's loop, in harness.cpp

// Runs `tasks` on worker threads allowed on every CPU the process started
// with, at most one per CPU, and returns when all have run. The output
// checks after the timed phase use it; they are not timed. Tasks must not
// throw.
void run_on_every_cpu(std::vector<std::function<void()>> tasks);

// How fast the benchmark's CPU runs, moment by moment. A thread of its own
// times a fixed reference loop (int16 multiply-accumulate over 256 KiB,
// the access pattern of the MAC kernel, about 0.3 ms on a quiet core) in
// thread CPU time every 8 ms, about 4% of the core. Every host-time metric
// is reported at the reference speed: each timed operation's wall time is
// multiplied by kReferenceMs over the loop's mean time during that
// operation. A slowdown stretches both alike, so the product holds still
// where the wall time moved by 20-50% between identical runs. The loop is
// the benchmark's own code, so a change to the program leaves it alone.
class HostMeter {
 public:
  HostMeter();
  ~HostMeter();
  HostMeter(const HostMeter&) = delete;
  HostMeter& operator=(const HostMeter&) = delete;

  // kReferenceMs over the loop's mean time across the samples that
  // started in [begin, end], or the two around it when fewer than two
  // did; 1 before the first sample.
  [[nodiscard]] double scale(Clock::time_point begin,
                             Clock::time_point end) const;
  // Milliseconds from `begin` to `end`, at the reference speed.
  [[nodiscard]] double ms(Clock::time_point begin, Clock::time_point end) const {
    return ms_between(begin, end) * scale(begin, end);
  }
  // The loop's median time so far, and the number of samples.
  [[nodiscard]] double median_loop_ms() const;
  [[nodiscard]] std::int64_t samples() const;

  // The loop's time on a quiet core of the reference host (Xeon,
  // 2.1 GHz nominal): host-time metrics read as if measured there.
  static constexpr double kReferenceMs = 0.30;

 private:
  void sample_until_stopped();

  struct Sample {
    Clock::time_point begin;
    double cpu_ms;
  };
  mutable std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_, in time order
  std::atomic<bool> stop_{false};
  // Allocated before the thread starts, with room for the samples of a
  // long run: the meter's thread does not allocate while the workload
  // runs, so it never waits on, or holds, the one malloc arena's lock.
  std::unique_ptr<ReferenceLoop> loop_;
  std::thread thread_;
};

// Five equal windows over one timed phase. A metric's value is taken over
// the whole phase: a latency percentile over every sample of the windows
// pooled, a rate as the phase's work over its time. Each window's own
// value is kept as the spread only.
inline constexpr int kWindows = 5;

struct Windows {
  Clock::time_point start;
  double window_s = 1.0;

  [[nodiscard]] Clock::time_point end() const {
    return after_ms(start, 1e3 * window_s * kWindows);
  }
  // Window holding `t`, or -1 outside the phase.
  [[nodiscard]] int index(Clock::time_point t) const;
};

// One timed sample in ms: its window (-1 = outside the phase, ignored),
// its wall-clock value and its value at the reference speed.
struct Timed {
  int window = -1;
  double measured = 0.0;
  double value = 0.0;
};
[[nodiscard]] Timed timed(const HostMeter& host, const Windows& w,
                          Clock::time_point begin, Clock::time_point end);

// A metric's value and, for a windowed one, the value of each window.
struct Spread {
  double value = 0.0;
  double measured = 0.0;        // the same figure from wall-clock time
  std::vector<double> windows;  // empty when the figure is not windowed
  std::int64_t samples = 0;     // raw samples behind a percentile
  std::int64_t beyond = -1;     // of those, above a tail percentile
};

// Linear-interpolated quantile of raw samples (q in [0, 1]); 0 for none.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Quantile q of every sample in the windows, pooled. Each window's own
// quantile is kept as the spread, and the samples beyond the value are
// counted: a tail percentile needs ten.
[[nodiscard]] Spread pooled_quantile(const std::vector<Timed>& samples,
                                     double q);

// Work per second of operations run one after another: each op's
// duration (a Timed, ms) with the work it did (requests, design points).
[[nodiscard]] Spread work_rate(const std::vector<std::pair<Timed, double>>& ops);

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// Peak resident set (VmHWM) of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

// Spans recorded by the benchmark around calls into the program. Kept in
// memory and written once, at exit, as Chrome trace-event JSON (loadable
// in Perfetto). A no-op unless the run is traced. Spans are recorded from
// the workload's main thread, after its windows.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Records one span and returns its id (0 when tracing is off). `parent`
  // is the id of the span that caused it, 0 for a root; `track` groups
  // spans onto one timeline row (a request, a replay).
  std::int64_t span(const char* name, Clock::time_point begin,
                    Clock::time_point end, std::int64_t parent,
                    std::int64_t request, std::int64_t track);
  // Writes every span; returns false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double begin_us;
    double end_us;
    std::int64_t id;
    std::int64_t parent;
    std::int64_t request;
    std::int64_t track;
  };
  const bool enabled_;
  const Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Metric names and their units, name -> unit, as BENCHMARK.json declares
// them. The file is the only list of metrics.
struct MetricTable {
  std::map<std::string, std::string> end_to_end;
  std::map<std::string, std::string> per_layer;
};
// Reads the "end_to_end" and "per_layer" lists of a BENCHMARK.json;
// throws std::runtime_error when the file is missing or malformed.
[[nodiscard]] MetricTable read_metric_table(const std::string& path);

// One run's results. Setting a metric the table does not name throws
// std::logic_error, and finish() refuses a report that misses one, so
// the binary and BENCHMARK.json cannot drift apart silently.
class Report {
 public:
  Report(MetricTable table, const HostMeter& host)
      : table_(std::move(table)), host_(host) {}

  [[nodiscard]] const HostMeter& host() const { return host_; }

  // A tail percentile with fewer than ten samples beyond it is warned.
  void end_to_end(const std::string& name, const Spread& s);
  void end_to_end(const std::string& name, double value) {
    end_to_end(name, Spread{value, 0.0, {}});
  }
  void layer(const std::string& name, double value);
  // Sets to 0 every per-layer metric under these prefixes ("net.") that
  // the workload does not exercise.
  void not_exercised(const std::vector<std::string>& prefixes);
  // An output check; a failed one makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = {});
  // A simulated figure that must repeat exactly across runs and commits.
  void invariant(const std::string& name, chainnn::net::Json value);
  // Free-form context (sample counts, rates) kept with the run.
  void note(const std::string& name, chainnn::net::Json value);
  // A condition that makes the run's timings unrepresentative without
  // making its outputs wrong (run.py prints it).
  void warn(const std::string& text) { warnings_.push_back(text); }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  [[nodiscard]] bool correct() const;
  // Serialises the report; throws std::logic_error when a metric of the
  // table is missing (per-layer ones only for traced runs).
  [[nodiscard]] std::string finish(const RunConfig& cfg) const;

 private:
  const MetricTable table_;
  const HostMeter& host_;
  std::map<std::string, Spread> e2e_;
  std::map<std::string, double> layers_;
  std::vector<std::pair<std::string, std::string>> failed_checks_;
  std::int64_t checks_ = 0;
  chainnn::net::JsonObject invariants_;
  chainnn::net::JsonObject notes_;
  std::vector<std::string> warnings_;
};

// Runs `make` repeatedly, each a cold construction of the workload's whole
// state, keeps the last state and reports the median set-up time, at the
// reference speed, as setup_s. Set-ups continue until they span one
// second (at least three, at most 250), so the median does not rest on a
// single moment of the host.
template <typename State>
std::unique_ptr<State> timed_setups(
    const RunConfig& cfg, Report& report,
    const std::function<std::unique_ptr<State>()>& make) {
  constexpr std::size_t kMin = 3;
  constexpr std::size_t kMax = 250;
  const double span_s = cfg.smoke ? 0.0 : 1.0;
  std::vector<double> measured, at_reference;
  std::unique_ptr<State> state;
  const auto begin = Clock::now();
  while (measured.size() < kMin ||
         (measured.size() < kMax && s_between(begin, Clock::now()) < span_s)) {
    state.reset();  // tear-down stays outside the timed region
    const auto t0 = Clock::now();
    state = make();
    const auto t1 = Clock::now();
    measured.push_back(s_between(t0, t1));
    at_reference.push_back(report.host().ms(t0, t1) / 1e3);
  }
  report.end_to_end("setup_s",
                    Spread{median(at_reference), median(measured), {}});
  report.note("setups", chainnn::net::Json(static_cast<std::int64_t>(measured.size())));
  return state;
}

}  // namespace bench
