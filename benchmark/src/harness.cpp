#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace bench {

using chainnn::net::Json;
using chainnn::net::JsonArray;
using chainnn::net::JsonObject;

namespace {

// The CPUs the process started with, saved by pin_to_one_cpu().
cpu_set_t g_started_with;
bool g_pinned = false;

double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return 1e3 * static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_nsec);
}

constexpr auto kMeterPeriod = std::chrono::milliseconds(8);
// Two minutes of samples; a longer run reallocates once in a while.
constexpr std::size_t kReservedSamples = 15'000;

}  // namespace

// HostMeter's loop: fixed work on fixed data, nothing from the program.
class ReferenceLoop {
 public:
  ReferenceLoop() : a_(kWords), b_(kWords), acc_(kAccumulators, 0) {
    for (std::size_t i = 0; i < kWords; ++i) {
      a_[i] = static_cast<std::int16_t>(i * 31);
      b_[i] = static_cast<std::int16_t>(i * 17 + 3);
    }
  }

  // One sample: thread CPU time in ms, so that time the program's own
  // threads hold the core is not counted.
  double run() {
    const double t0 = thread_cpu_ms();
    // Sixteen independent accumulators per block keep the loop bound by
    // loads and stores rather than by one chain of dependent additions.
    for (std::size_t pass = 0; pass < kPasses; ++pass)
      for (std::size_t i = 0; i < kWords; i += 16)
        for (std::size_t j = 0; j < 16; ++j)
          acc_[((i >> 4) + j) & (kAccumulators - 1)] +=
              static_cast<std::int64_t>(a_[i + j]) *
              b_[(i + j + pass) & (kWords - 1)];
    const double ms = thread_cpu_ms() - t0;
    sink_ = acc_[static_cast<std::size_t>(sink_) & (kAccumulators - 1)];
    return ms;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 16;
  static constexpr std::size_t kAccumulators = std::size_t{1} << 12;
  static constexpr std::size_t kPasses = 4;
  std::vector<std::int16_t> a_, b_;
  std::vector<std::int64_t> acc_;
  std::int64_t sink_ = 0;
};


int pin_to_one_cpu() {
  if (sched_getaffinity(0, sizeof(g_started_with), &g_started_with) != 0)
    return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &g_started_with)) cpu = c;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  g_pinned = true;
  return cpu;
}

void run_on_every_cpu(std::vector<std::function<void()>> tasks) {
  cpu_set_t pinned;
  const bool widen = g_pinned &&
                     sched_getaffinity(0, sizeof(pinned), &pinned) == 0 &&
                     sched_setaffinity(0, sizeof(g_started_with),
                                       &g_started_with) == 0;
  const int cpus = widen ? CPU_COUNT(&g_started_with) : 1;
  const std::size_t workers =
      std::min(tasks.size(), static_cast<std::size_t>(std::max(1, cpus)));
  std::atomic<std::size_t> next{0};
  {
    // Threads inherit the widened set; the caller's is restored below.
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < workers; ++w)
      threads.emplace_back([&tasks, &next] {
        for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
      });
  }
  if (widen) sched_setaffinity(0, sizeof(pinned), &pinned);
}

HostMeter::HostMeter() : loop_(std::make_unique<ReferenceLoop>()) {
  samples_.reserve(kReservedSamples);
  thread_ = std::thread([this] { sample_until_stopped(); });
}

HostMeter::~HostMeter() {
  stop_ = true;
  thread_.join();
}

void HostMeter::sample_until_stopped() {
  auto next = Clock::now();
  while (!stop_) {
    const auto begin = Clock::now();
    const double ms = loop_->run();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({begin, ms});
    }
    // After a stall, one sample at once and then the usual cadence, not
    // a catch-up burst.
    next = std::max(next + kMeterPeriod, Clock::now());
    std::this_thread::sleep_until(next);
  }
}

double HostMeter::scale(Clock::time_point begin, Clock::time_point end) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto starts_before = [](const Sample& s, Clock::time_point t) {
    return s.begin < t;
  };
  auto first = std::lower_bound(samples_.begin(), samples_.end(), begin,
                                starts_before);
  auto last = std::upper_bound(
      first, samples_.end(), end,
      [](Clock::time_point t, const Sample& s) { return t < s.begin; });
  if (last - first < 2) {
    if (first != samples_.begin()) --first;
    if (last != samples_.end()) ++last;
  }
  if (first == last) return 1.0;
  double sum = 0.0;
  for (auto it = first; it != last; ++it) sum += it->cpu_ms;
  return kReferenceMs * static_cast<double>(last - first) / sum;
}

double HostMeter::median_loop_ms() const {
  std::vector<double> v;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Sample& s : samples_) v.push_back(s.cpu_ms);
  }
  return median(std::move(v));
}

std::int64_t HostMeter::samples() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(samples_.size());
}

int Windows::index(Clock::time_point t) const {
  if (t < start) return -1;
  const auto i = static_cast<int>(s_between(start, t) / window_s);
  return i < kWindows ? i : -1;
}

Timed timed(const HostMeter& host, const Windows& w, Clock::time_point begin,
            Clock::time_point end) {
  return {w.index(begin), ms_between(begin, end), host.ms(begin, end)};
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Spread pooled_quantile(const std::vector<Timed>& samples, double q) {
  std::vector<std::vector<double>> windows(kWindows);
  std::vector<double> pooled, measured;
  for (const Timed& t : samples)
    if (t.window >= 0) {
      windows[static_cast<std::size_t>(t.window)].push_back(t.value);
      pooled.push_back(t.value);
      measured.push_back(t.measured);
    }
  Spread s;
  for (const std::vector<double>& w : windows)
    if (!w.empty()) s.windows.push_back(quantile(w, q));
  s.value = quantile(pooled, q);
  s.measured = quantile(std::move(measured), q);
  s.samples = static_cast<std::int64_t>(pooled.size());
  s.beyond = std::count_if(pooled.begin(), pooled.end(),
                           [&s](double v) { return v > s.value; });
  return s;
}

Spread work_rate(const std::vector<std::pair<Timed, double>>& ops) {
  std::vector<double> work(kWindows, 0.0), ms(kWindows, 0.0);
  double total_work = 0.0, total_ms = 0.0, total_measured = 0.0;
  for (const auto& [t, w] : ops) {
    if (t.window < 0) continue;
    work[static_cast<std::size_t>(t.window)] += w;
    ms[static_cast<std::size_t>(t.window)] += t.value;
    total_work += w;
    total_ms += t.value;
    total_measured += t.measured;
  }
  Spread s;
  for (int i = 0; i < kWindows; ++i)
    s.windows.push_back(1e3 * ratio(work[static_cast<std::size_t>(i)],
                                    ms[static_cast<std::size_t>(i)]));
  s.value = 1e3 * ratio(total_work, total_ms);
  s.measured = 1e3 * ratio(total_work, total_measured);
  return s;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::int64_t Trace::span(const char* name, Clock::time_point begin,
                         Clock::time_point end, std::int64_t parent,
                         std::int64_t request, std::int64_t track) {
  if (!enabled_) return 0;
  const auto id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back({name, us_between(origin_, begin), us_between(origin_, end),
                    id, parent, request, track});
  return id;
}

bool Trace::write(const std::string& path) const {
  JsonArray events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    JsonObject args;
    args.emplace_back("span", Json(s.id));
    args.emplace_back("parent", Json(s.parent));
    args.emplace_back("request", Json(s.request));
    JsonObject e;
    e.emplace_back("name", Json(s.name));
    e.emplace_back("ph", Json("X"));
    e.emplace_back("ts", Json(s.begin_us));
    e.emplace_back("dur", Json(std::max(0.0, s.end_us - s.begin_us)));
    e.emplace_back("pid", Json(1));
    e.emplace_back("tid", Json(s.track));
    e.emplace_back("args", Json(std::move(args)));
    events.emplace_back(std::move(e));
  }
  JsonObject doc;
  doc.reserve(2);  // GCC 12 warns falsely on the growth path of an empty vector
  doc.emplace_back("displayTimeUnit", Json("ms"));
  doc.emplace_back("traceEvents", Json(std::move(events)));
  std::ofstream out(path);
  out << Json(std::move(doc)).dump() << "\n";
  return static_cast<bool>(out);
}

namespace {

std::map<std::string, std::string> metric_list(const Json& doc,
                                               const char* key) {
  const Json* list = doc.find(key);
  if (!list || !list->is_array())
    throw std::runtime_error(std::string("no \"") + key + "\" list");
  std::map<std::string, std::string> out;
  for (const Json& m : list->as_array()) {
    const Json* name = m.find("name");
    const Json* unit = m.find("unit");
    if (!name || !name->is_string() || !unit || !unit->is_string())
      throw std::runtime_error(std::string("a \"") + key +
                               "\" entry lacks a name or unit");
    out[name->as_string()] = unit->as_string();
  }
  return out;
}

}  // namespace

MetricTable read_metric_table(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const std::optional<Json> doc = Json::parse(text.str(), &error);
  if (!in || !doc)
    throw std::runtime_error("cannot read metrics from " + path + " " + error);
  return {metric_list(*doc, "end_to_end"), metric_list(*doc, "per_layer")};
}

void Report::end_to_end(const std::string& name, const Spread& s) {
  if (!table_.end_to_end.count(name))
    throw std::logic_error("unknown end-to-end metric " + name);
  if (s.beyond >= 0 && s.beyond < 10)
    warn(name + ": only " + std::to_string(s.beyond) +
         " samples beyond the percentile");
  e2e_[name] = s;
}

void Report::layer(const std::string& name, double value) {
  if (!table_.per_layer.count(name))
    throw std::logic_error("unknown per-layer metric " + name);
  layers_[name] = value;
}

void Report::not_exercised(const std::vector<std::string>& prefixes) {
  for (const auto& [name, unit] : table_.per_layer)
    for (const std::string& p : prefixes)
      if (name.rfind(p, 0) == 0) layers_.try_emplace(name, 0.0);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++checks_;
  if (!ok) failed_checks_.emplace_back(name, detail);
}

void Report::invariant(const std::string& name, Json value) {
  invariants_.emplace_back(name, std::move(value));
}

void Report::note(const std::string& name, Json value) {
  notes_.emplace_back(name, std::move(value));
}

bool Report::correct() const { return failed_checks_.empty() && failed == 0; }

std::string Report::finish(const RunConfig& cfg) const {
  JsonObject e2e;
  for (const auto& [name, unit] : table_.end_to_end) {
    const auto it = e2e_.find(name);
    if (it == e2e_.end())
      throw std::logic_error("end-to-end metric not set: " + name);
    const Spread& s = it->second;
    JsonObject m;
    m.emplace_back("value", Json(s.value));
    m.emplace_back("unit", Json(unit));
    if (s.measured > 0.0) m.emplace_back("measured", Json(s.measured));
    if (!s.windows.empty()) {
      JsonArray windows;
      for (const double v : s.windows) windows.emplace_back(v);
      m.emplace_back("windows", Json(std::move(windows)));
    }
    if (s.samples > 0) m.emplace_back("samples", Json(s.samples));
    if (s.beyond >= 0) m.emplace_back("beyond", Json(s.beyond));
    e2e.emplace_back(name, Json(std::move(m)));
  }
  JsonObject layers;
  if (cfg.traced()) {
    for (const auto& [name, unit] : table_.per_layer) {
      const auto it = layers_.find(name);
      if (it == layers_.end())
        throw std::logic_error("per-layer metric not set: " + name);
      JsonObject m;
      m.emplace_back("value", Json(it->second));
      m.emplace_back("unit", Json(unit));
      layers.emplace_back(name, Json(std::move(m)));
    }
  }
  JsonArray failures;
  for (const auto& [name, detail] : failed_checks_) {
    JsonObject f;
    f.emplace_back("check", Json(name));
    f.emplace_back("detail", Json(detail));
    failures.emplace_back(std::move(f));
  }

  JsonObject doc;
  doc.emplace_back("workload", Json(cfg.workload));
  doc.emplace_back("seed", Json(static_cast<std::int64_t>(cfg.seed)));
  doc.emplace_back("seconds", Json(cfg.seconds));
  doc.emplace_back("smoke", Json(cfg.smoke));
  doc.emplace_back("traced", Json(cfg.traced()));
  doc.emplace_back("correct", Json(correct()));
  doc.emplace_back("attempted", Json(attempted));
  doc.emplace_back("failed", Json(failed));
  doc.emplace_back("checks", Json(checks_));
  doc.emplace_back("failed_checks", Json(std::move(failures)));
  JsonArray warnings;
  for (const std::string& w : warnings_) warnings.emplace_back(w);
  doc.emplace_back("warnings", Json(std::move(warnings)));
  doc.emplace_back("metrics", Json(std::move(e2e)));
  doc.emplace_back("per_layer", Json(std::move(layers)));
  doc.emplace_back("invariants", Json(invariants_));
  doc.emplace_back("notes", Json(notes_));
  return Json(std::move(doc)).dump();
}

}  // namespace bench
