#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace chainnn::serve {

double FleetStats::modelled_makespan_seconds() const {
  double makespan = 0.0;
  for (const FleetChipStats& chip : chips)
    makespan = std::max(makespan, chip.dispatched_seconds);
  return makespan;
}

Fleet::Fleet(FleetOptions options)
    : opts_(std::move(options)),
      cache_(opts_.plan_cache ? opts_.plan_cache
                              : std::make_shared<PlanCache>()) {
  if (opts_.chips.empty()) opts_.chips = default_fleet_chips();
  CHAINNN_CHECK_MSG(opts_.threads_per_chip >= 1,
                    "threads_per_chip must be >= 1, got "
                        << opts_.threads_per_chip);
  router_ = std::make_unique<Router>(opts_.chips, cache_);

  servers_.reserve(opts_.chips.size());
  Router* router = router_.get();
  for (std::size_t c = 0; c < opts_.chips.size(); ++c) {
    const ChipSpec& chip = opts_.chips[c];
    ServerOptions so;
    so.accelerator = opts_.accelerator;
    so.accelerator.array = chip.array;
    so.accelerator.memory = chip.memory;
    so.energy = opts_.energy;
    so.name = chip.name;
    so.num_threads = opts_.threads_per_chip;
    so.max_queue = opts_.max_queue_per_chip;
    so.fidelity_sample_every_n = opts_.fidelity_sample_every_n;
    so.plan_cache = cache_;
    so.enable_preemption = opts_.preemption;
    // Request ids are per-server, so decorrelate the generated-input
    // streams per chip (SplitMix64 expands the seed; a golden-ratio
    // stride keeps chip streams disjoint for any realistic id range).
    so.input_seed =
        opts_.input_seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(c + 1);
    // Resume-aware backlog accounting: a preemption retires the modelled
    // seconds of the layers already completed, and the completion hook
    // retires only the remainder — together exactly modelled_seconds,
    // never more, so a request that is preempted and then cancelled is
    // not double-retracted (the clamp guards float dust, not logic).
    so.preemption_hook = [router, c](std::int64_t, double retired_seconds) {
      router->complete(c, retired_seconds);
    };
    // The raw Journal pointer in the hooks is safe: opts_ (and its
    // journal shared_ptr) outlives servers_ — members destroy in
    // reverse declaration order, and ~InferenceServer joins its drains.
    Journal* journal = opts_.journal.get();
    so.completion_hook = [router, c, journal](const InferenceResult& r) {
      router->complete(c, std::max(0.0, r.modelled_seconds -
                                            r.modelled_seconds_retired));
      // Terminal record *after* the backlog retire and *before* the
      // future resolves (the server fires this hook first), so a log
      // with a terminal record never describes a request a caller has
      // not yet been able to observe as done.
      if (journal && r.tag != 0) {
        switch (r.status) {
          case RequestStatus::kOk:
            journal->append(encode_complete(r.tag));
            break;
          case RequestStatus::kCancelled:
            journal->append(encode_cancel(r.tag,
                                          r.deadline_expired
                                              ? CancelReason::kDeadline
                                              : CancelReason::kToken));
            break;
          case RequestStatus::kFailed:
            journal->append(encode_cancel(r.tag, CancelReason::kFailed));
            break;
          case RequestStatus::kRejected:
            break;  // rejections are journaled at submit, not here
        }
      }
    };
    if (journal) {
      const std::string chip_name = chip.name;
      so.checkpoint_hook = [journal, chip_name](
                               std::uint64_t tag,
                               const chain::RunCheckpoint& cp) {
        journal->append(encode_checkpoint_payload(tag, chip_name, cp));
      };
    }
    servers_.push_back(std::make_unique<InferenceServer>(std::move(so)));
  }
}

namespace {
// The deadline an admission-controlled request must be feasible within,
// in seconds; nullopt disables admission for this submit.
std::optional<double> admission_deadline_s(const RequestOptions& options) {
  if (!options.admission || !options.deadline_ms) return std::nullopt;
  return *options.deadline_ms / 1e3;
}
}  // namespace

std::optional<std::future<InferenceResult>> Fleet::try_reject(
    const RouteDecision& decision, std::uint64_t tag) {
  if (decision.admitted) return std::nullopt;
  // Infeasible on every chip: resolve the future right here with
  // kRejected. The router charged nothing, no server ever sees the
  // request, and the trace rollups skip it like any non-kOk entry.
  ++rejected_;
  InferenceResult r;
  r.tag = tag;
  r.status = RequestStatus::kRejected;
  r.chip = decision.chip_name;  // best (still infeasible) chip, for info
  r.modelled_seconds = decision.request_seconds;
  std::promise<InferenceResult> promise;
  std::future<InferenceResult> future = promise.get_future();
  promise.set_value(std::move(r));
  return future;
}

void Fleet::journal_submit(const RouteDecision& decision,
                           const nn::NetworkModel& net,
                           const Tensor<std::int16_t>& input,
                           RequestOptions& options) {
  if (!opts_.journal) return;
  if (options.tag == 0) options.tag = 1 + next_tag_.fetch_add(1);
  SubmitRecord rec;
  rec.tag = options.tag;
  rec.chip_name = decision.chip_name;
  rec.net = net;
  rec.input = input;
  rec.priority = options.priority;
  rec.verify_against_golden = options.verify_against_golden;
  rec.exec_mode = options.exec_mode;
  rec.array = options.array;
  rec.inter_layer = options.inter_layer;
  // SUBMIT hits the log *before* the request can reach a chip queue, so
  // a crash at any later point finds the request journaled: the
  // recovery either sees a terminal record too (done) or replays it —
  // a request is never silently lost.
  opts_.journal->append(encode_submit(rec));
  // A refused admission is terminal at submit; pair the records here so
  // the log never carries a dangling SUBMIT for a request that already
  // resolved kRejected.
  if (!decision.admitted) opts_.journal->append(encode_reject(options.tag));
}

std::future<InferenceResult> Fleet::journal_and_enqueue(
    const RouteDecision& decision, nn::NetworkModel net,
    Tensor<std::int16_t> input, RequestOptions options) {
  std::uint64_t journaled_tag = 0;  // nonzero once SUBMIT is on the log
  try {
    journal_submit(decision, net, input, options);
    if (opts_.journal) journaled_tag = options.tag;
    if (auto rejected = try_reject(decision, options.tag))
      return std::move(*rejected);
    options.modelled_seconds = decision.request_seconds;
    return servers_[decision.chip]->submit(std::move(net), std::move(input),
                                           std::move(options));
  } catch (...) {
    // Only the completion hook retires a dispatch, and it never runs for
    // a request no server holds.
    if (decision.admitted) router_->retract(decision);
    // Likewise no terminal record will ever follow the SUBMIT — close it
    // out here or a recovery would replay a request whose submitter saw
    // an exception.
    if (journaled_tag != 0)
      opts_.journal->append(
          encode_cancel(journaled_tag, CancelReason::kFailed));
    throw;
  }
}

std::future<InferenceResult> Fleet::submit(nn::NetworkModel net,
                                           Tensor<std::int16_t> input,
                                           RequestOptions options) {
  // Mirror InferenceServer::submit's request validation *before* routing:
  // a dispatch charges the chip's backlog, and only the completion hook
  // retires it, so a request rejected after routing must be retracted.
  CHAINNN_CHECK_MSG(!net.conv_layers.empty(),
                    "cannot serve an empty network");
  CHAINNN_CHECK(input.shape().rank() == 4);
  const RouteDecision decision = router_->route_and_dispatch(
      net, input.shape().dim(0), input.shape().dim(2), input.shape().dim(3),
      options.inter_layer, options.array, admission_deadline_s(options));
  return journal_and_enqueue(decision, std::move(net), std::move(input),
                             std::move(options));
}

std::future<InferenceResult> Fleet::submit(const nn::NetworkModel& net,
                                           std::int64_t batch,
                                           RequestOptions options) {
  CHAINNN_CHECK_MSG(batch >= 1, "batch must be >= 1, got " << batch);
  CHAINNN_CHECK_MSG(!net.conv_layers.empty(),
                    "cannot serve an empty network");
  const nn::ConvLayerParams& first = net.conv_layers.front();
  if (opts_.journal) {
    // A journaled SUBMIT must carry the concrete input tensor (the
    // server-side generator keys on per-server request ids, which
    // restart from 1 with the process and so cannot reproduce the input
    // after a crash). Generate it here, keyed by the durable tag, and
    // take the explicit-input path.
    if (options.tag == 0) options.tag = 1 + next_tag_.fetch_add(1);
    Tensor<std::int16_t> input(
        Shape{batch, first.in_channels, first.in_height, first.in_width});
    Rng rng(opts_.input_seed ^ (0x9E3779B97F4A7C15ull * options.tag));
    input.fill_random(rng, -64, 64);
    return submit(net, std::move(input), std::move(options));
  }
  const RouteDecision decision = router_->route_and_dispatch(
      net, batch, first.in_height, first.in_width, options.inter_layer,
      options.array, admission_deadline_s(options));
  if (auto rejected = try_reject(decision, options.tag))
    return std::move(*rejected);
  options.modelled_seconds = decision.request_seconds;
  try {
    return servers_[decision.chip]->submit(net, batch, std::move(options));
  } catch (...) {
    router_->retract(decision);
    throw;
  }
}

RecoveryReport Fleet::recover(const std::string& journal_path) {
  RecoveryReport report;
  JournalAnalysis log = analyze_journal_file(journal_path);
  report.journal_submits = log.submits;
  report.journal_completed = log.completed;
  report.journal_cancelled = log.cancelled;
  report.journal_rejected = log.rejected;
  report.truncated_tail = log.truncated_tail;
  report.checksum_errors = log.checksum_errors;

  // New tags must clear every journaled one: replays keep their original
  // tags and post-recovery submits continue past the maximum.
  std::uint64_t cur = next_tag_.load();
  while (cur < log.max_tag &&
         !next_tag_.compare_exchange_weak(cur, log.max_tag)) {
  }

  const std::vector<ChipSpec>& fleet_chips = router_->chips();
  for (InFlightRequest& req : log.in_flight) {
    SubmitRecord& s = req.submit;
    RequestOptions options;
    options.tag = s.tag;
    options.priority = static_cast<std::int32_t>(s.priority);
    options.verify_against_golden = s.verify_against_golden;
    options.exec_mode = s.exec_mode;
    options.array = s.array;
    options.inter_layer = s.inter_layer;
    if (req.checkpoint) {
      options.resume = req.checkpoint;
      ++report.resumed_from_checkpoint;
    }

    // Pin the replay to the chip that held it pre-crash — the chip the
    // last checkpoint was captured on, else the chip the router placed
    // it on — so a same-topology recovery reproduces the original run
    // bit for bit (same array => same plans, cycles and ofmaps).
    const std::string& pin_name =
        req.checkpoint ? req.checkpoint_chip : s.chip_name;
    std::optional<std::size_t> pin;
    for (std::size_t c = 0; c < fleet_chips.size(); ++c) {
      if (fleet_chips[c].name == pin_name) {
        pin = c;
        break;
      }
    }

    std::future<InferenceResult> fut;
    if (pin) {
      // Manual dispatch: charge the pinned chip's backlog exactly as
      // route_and_dispatch would have, then enqueue directly.
      RouteDecision d;
      d.chip = *pin;
      d.chip_name = pin_name;
      d.request_seconds = router_->modelled_request_seconds(
          *pin, s.net, s.input.shape().dim(0), s.input.shape().dim(2),
          s.input.shape().dim(3), s.inter_layer, s.array);
      router_->dispatch(d);
      fut = journal_and_enqueue(d, std::move(s.net), std::move(s.input),
                                std::move(options));
    } else {
      // The pre-crash chip is not part of this fleet: fall back to
      // normal routing. With a checkpoint in hand this is the
      // cross-chip handoff — the resumed layers re-plan for the new
      // chip and the ofmaps stay value-identical (the PR-5 guarantee).
      if (req.checkpoint) {
        ++handoffs_;
        ++report.checkpoint_handoffs;
      }
      fut = submit(std::move(s.net), std::move(s.input), std::move(options));
    }
    ++recovered_;
    ++report.replayed;
    report.futures.emplace_back(s.tag, std::move(fut));
  }
  return report;
}

RouteDecision Fleet::plan_route(const nn::NetworkModel& net,
                                std::int64_t batch,
                                const RequestOptions& options) const {
  CHAINNN_CHECK_MSG(!net.conv_layers.empty(),
                    "cannot route an empty network");
  const nn::ConvLayerParams& first = net.conv_layers.front();
  return router_->route(net, batch, first.in_height, first.in_width,
                        options.inter_layer, options.array);
}

void Fleet::wait_idle() {
  for (const auto& server : servers_) server->wait_idle();
}

double FleetTraceReport::fleet_makespan_seconds() const {
  double makespan = 0.0;
  for (const double busy : busy_seconds) makespan = std::max(makespan, busy);
  return makespan;
}

std::size_t FleetTraceReport::best_single_chip() const {
  CHAINNN_CHECK(!single_chip_seconds.empty());
  std::size_t best = 0;
  for (std::size_t c = 1; c < single_chip_seconds.size(); ++c)
    if (single_chip_seconds[c] < single_chip_seconds[best]) best = c;
  return best;
}

double FleetTraceReport::best_single_seconds() const {
  return single_chip_seconds[best_single_chip()];
}

double FleetTraceReport::modelled_speedup() const {
  const double makespan = fleet_makespan_seconds();
  return makespan == 0.0 ? 0.0 : best_single_seconds() / makespan;
}

FleetTraceReport run_fleet_trace(Fleet& fleet,
                                 const std::vector<FleetTraceEntry>& trace) {
  const std::size_t num_chips = fleet.chips().size();
  FleetTraceReport report;
  report.busy_seconds.assign(num_chips, 0.0);
  report.single_chip_seconds.assign(num_chips, 0.0);

  // Per-entry modelled seconds on every chip, priced up front; charged
  // below only for entries that actually complete, so a cancelled or
  // failed request drops out of *both* sides of the comparison and
  // cannot tilt the modelled speedup toward the fleet.
  std::vector<std::vector<double>> entry_seconds(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const FleetTraceEntry& e = trace[i];
    CHAINNN_CHECK_MSG(e.net && !e.net->conv_layers.empty(),
                      "trace entry without a network");
    const nn::ConvLayerParams& first = e.net->conv_layers.front();
    entry_seconds[i].resize(num_chips);
    // The entry's per-request array override applies on both sides:
    // busy_seconds accrues override-based modelled_seconds, so pricing
    // the single-chip replay on the chip's native array would compare
    // two different workloads.
    for (std::size_t c = 0; c < num_chips; ++c)
      entry_seconds[i][c] = fleet.router().modelled_request_seconds(
          c, *e.net, e.batch, first.in_height, first.in_width,
          e.options.inter_layer, e.options.array);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(trace.size());
  for (const FleetTraceEntry& e : trace)
    futures.push_back(fleet.submit(*e.net, e.batch, e.options));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult r = futures[i].get();
    if (r.status != RequestStatus::kOk) continue;
    ++report.completed;
    for (std::size_t c = 0; c < num_chips; ++c) {
      report.single_chip_seconds[c] += entry_seconds[i][c];
      if (fleet.chips()[c].name == r.chip)
        report.busy_seconds[c] += r.modelled_seconds;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return report;
}

FleetStats Fleet::stats() const {
  FleetStats out;
  const std::vector<double> backlog = router_->backlog_seconds();
  const std::vector<double> dispatched = router_->dispatched_seconds();
  const std::vector<std::int64_t> routed = router_->routed_counts();
  out.chips.reserve(servers_.size());
  for (std::size_t c = 0; c < servers_.size(); ++c) {
    FleetChipStats chip;
    chip.name = opts_.chips[c].name;
    chip.server = servers_[c]->stats();
    chip.routed = routed[c];
    chip.backlog_seconds = backlog[c];
    chip.dispatched_seconds = dispatched[c];
    out.submitted += chip.server.submitted;
    out.completed += chip.server.completed;
    out.failed += chip.server.failed;
    out.cancelled += chip.server.cancelled;
    out.deadline_misses += chip.server.deadline_misses;
    out.deadline_expired += chip.server.deadline_expired;
    out.preemptions += chip.server.preemptions;
    out.resumes += chip.server.resumes;
    out.fidelity_samples += chip.server.fidelity_samples;
    out.fidelity_divergences += chip.server.fidelity_divergences;
    out.arena.bytes_in_use += chip.server.arena.bytes_in_use;
    out.arena.high_water_bytes += chip.server.arena.high_water_bytes;
    out.arena.freelist_bytes += chip.server.arena.freelist_bytes;
    out.arena.allocations += chip.server.arena.allocations;
    out.arena.reuses += chip.server.arena.reuses;
    out.chips.push_back(std::move(chip));
  }
  out.rejected = rejected_.load();
  out.recovered_requests = recovered_.load();
  out.checkpoint_handoffs = handoffs_.load();
  if (opts_.journal) out.journal = opts_.journal->stats();
  out.plan_cache = cache_->stats();
  return out;
}

}  // namespace chainnn::serve
