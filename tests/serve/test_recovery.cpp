// Fleet::recover: kill a journaled fleet at an arbitrary byte of its
// journal and prove the replacement fleet reconstructs exactly the
// requests that had no terminal record — bit-identical results (ofmaps
// AND cycles, the same-chip pinning guarantee), no lost and no
// duplicated requests — including resuming from a journaled preemption
// checkpoint, handing a checkpoint off across chips when the original
// chip is gone, and recovery idempotence.
//
// Recovered replays draw the default weight stream (weight_init is
// deliberately not journaled), so every request here uses default
// weights — the serving common case recovery is specified for.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "serve/durable.hpp"
#include "serve/fleet.hpp"
#include "serve/journal.hpp"

namespace chainnn::serve {
namespace {

std::string temp_path(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("chainnn_recovery_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

nn::NetworkModel tiny_net(int layers) {
  nn::NetworkModel net;
  net.name = "tiny" + std::to_string(layers);
  std::int64_t channels = 2;
  for (int i = 0; i < layers; ++i) {
    nn::ConvLayerParams l;
    l.name = "c" + std::to_string(i + 1);
    l.in_channels = channels;
    l.out_channels = (i + 1 == layers) ? 2 : 3;
    l.in_height = l.in_width = 8;
    l.kernel = 3;
    l.pad = 1;
    channels = l.out_channels;
    net.conv_layers.push_back(l);
  }
  return net;
}

Tensor<std::int16_t> request_input(const nn::NetworkModel& net,
                                   std::int64_t batch, std::uint64_t seed) {
  const nn::ConvLayerParams& first = net.conv_layers.front();
  Tensor<std::int16_t> input(
      Shape{batch, first.in_channels, first.in_height, first.in_width});
  Rng rng(seed);
  input.fill_random(rng, -64, 64);
  return input;
}

chain::AcceleratorConfig chip_config(const ChipSpec& chip) {
  chain::AcceleratorConfig cfg = analytical_accelerator_config();
  cfg.array = chip.array;
  cfg.memory = chip.memory;
  return cfg;
}

// Reference execution, undisturbed, default weight stream: what any
// recovery of the request must reproduce.
chain::NetworkRunResult direct_run(const nn::NetworkModel& net,
                                   const Tensor<std::int16_t>& input,
                                   const chain::AcceleratorConfig& cfg) {
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = false;
  return runner.run(net, input, ro);
}

std::shared_ptr<chain::RunCheckpoint> capture_checkpoint(
    const nn::NetworkModel& net, const Tensor<std::int16_t>& input,
    const chain::AcceleratorConfig& cfg, std::int64_t after_layers) {
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = false;
  std::int64_t polls = 0;
  ro.preempt_check = [&polls, after_layers] {
    return polls++ == after_layers;
  };
  try {
    (void)runner.run(net, input, ro);
  } catch (const chain::RunPreempted& preempted) {
    return preempted.checkpoint();
  }
  ADD_FAILURE() << "run was not preempted";
  return nullptr;
}

// Byte offsets of every clean cut point in a journal file: after the
// header, and after each whole record. A cut at any *other* offset lands
// mid-record (the torn-tail case).
struct JournalLayout {
  std::vector<std::size_t> boundaries;  // [0] = header-only
  std::vector<RecordType> types;        // type of record ending at [i+1]
};

JournalLayout journal_layout(const std::string& bytes) {
  JournalLayout out;
  std::size_t pos = 12;  // magic + version
  out.boundaries.push_back(pos);
  const JournalReadResult log =
      read_records(std::string_view(bytes).substr(pos));
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.checksum_errors, 0);
  for (const JournalRecord& rec : log.records) {
    pos += 12 + 1 + rec.payload.size();
    out.boundaries.push_back(pos);
    out.types.push_back(rec.type);
  }
  EXPECT_EQ(pos, bytes.size());
  return out;
}

FleetOptions journaled_fleet_options(const std::string& journal_path,
                                     std::vector<ChipSpec> chips = {}) {
  FleetOptions opts;
  opts.chips = std::move(chips);
  opts.threads_per_chip = 1;
  opts.preemption = true;
  JournalOptions jo;
  jo.path = journal_path;
  jo.fsync_every_records = 0;  // crash-cut simulation slices bytes itself
  opts.journal = std::make_shared<Journal>(jo);
  return opts;
}

// Recovers the first `cut` bytes of `journal_bytes` into a fresh fleet
// and asserts the whole contract: exactly the journal's in-flight
// requests are replayed, in order, each bit-identical to its pre-crash
// baseline result on the same chip, and the post-recovery accounting
// balances (no lost or duplicated requests). Returns the recovery
// journal path when `journaled` (for idempotence checks).
struct CutVerdict {
  RecoveryReport report;
  std::string recovery_journal;
};

CutVerdict verify_recovery_at_cut(
    const std::string& journal_bytes, std::size_t cut,
    const std::map<std::uint64_t, InferenceResult>& baseline,
    const std::vector<ChipSpec>& chips, const std::string& label,
    bool journaled = false) {
  SCOPED_TRACE(label);
  CutVerdict out;
  const std::string cut_path = temp_path(label + ".jrnl");
  write_file(cut_path, std::string_view(journal_bytes).substr(0, cut));

  // The oracle: a pure analysis of the very bytes recover() will read.
  const JournalAnalysis oracle = analyze_journal_file(cut_path);

  FleetOptions opts;
  opts.chips = chips;
  opts.threads_per_chip = 1;
  opts.preemption = true;
  if (journaled) {
    out.recovery_journal = temp_path(label + ".recovery.jrnl");
    JournalOptions jo;
    jo.path = out.recovery_journal;
    jo.fsync_every_records = 0;
    opts.journal = std::make_shared<Journal>(jo);
  }
  Fleet fleet(opts);
  RecoveryReport rep = fleet.recover(cut_path);

  EXPECT_EQ(rep.journal_submits, oracle.submits);
  EXPECT_EQ(rep.journal_completed, oracle.completed);
  EXPECT_EQ(rep.journal_cancelled, oracle.cancelled);
  EXPECT_EQ(rep.journal_rejected, oracle.rejected);
  EXPECT_EQ(rep.truncated_tail, oracle.truncated_tail);
  EXPECT_EQ(rep.checksum_errors, oracle.checksum_errors);
  EXPECT_EQ(rep.replayed,
            static_cast<std::int64_t>(oracle.in_flight.size()));
  EXPECT_EQ(rep.futures.size(), oracle.in_flight.size());

  for (std::size_t i = 0;
       i < rep.futures.size() && i < oracle.in_flight.size(); ++i) {
    const std::uint64_t tag = rep.futures[i].first;
    EXPECT_EQ(tag, oracle.in_flight[i].submit.tag) << "replay order";
    const InferenceResult replayed = rep.futures[i].second.get();
    EXPECT_EQ(replayed.tag, tag);
    EXPECT_EQ(replayed.status, RequestStatus::kOk) << "tag " << tag;
    const auto base = baseline.find(tag);
    if (base == baseline.end()) {
      ADD_FAILURE() << "replayed unknown tag " << tag;
      continue;
    }
    // Same chip as before the crash (the pin), hence bit identity —
    // ofmaps, narrowing stats, cycles, traffic, final activations.
    EXPECT_EQ(replayed.chip, base->second.chip) << "tag " << tag;
    std::string why;
    EXPECT_TRUE(
        network_runs_identical(base->second.run, replayed.run, &why))
        << "tag " << tag << ": " << why;
  }

  fleet.wait_idle();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.recovered_requests, rep.replayed);
  EXPECT_EQ(stats.submitted, rep.replayed);
  EXPECT_EQ(stats.completed + stats.cancelled + stats.failed,
            rep.replayed);
  EXPECT_EQ(stats.checkpoint_handoffs, 0);  // same topology: always pinned
  out.report = std::move(rep);
  return out;
}

// Runs a journaled baseline fleet over a mixed trace to completion and
// returns every result keyed by durable tag, plus the journal bytes.
struct Baseline {
  std::map<std::uint64_t, InferenceResult> by_tag;
  std::string journal_bytes;
  std::vector<ChipSpec> chips;
  FleetStats stats;
};

Baseline run_baseline(const std::string& journal_path) {
  Baseline out;
  const nn::NetworkModel net2 = tiny_net(2);
  const nn::NetworkModel net3 = tiny_net(3);
  {
    Fleet fleet(journaled_fleet_options(journal_path));
    out.chips = fleet.chips();
    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 8; ++i) {
      const nn::NetworkModel& net = (i % 2 == 0) ? net2 : net3;
      RequestOptions options;
      options.priority = (i % 3 == 2) ? 2 : 0;
      if (i % 2 == 0) {
        // Explicit input (journaled verbatim in the SUBMIT record).
        futures.push_back(fleet.submit(
            net, request_input(net, 1 + i % 2, 100 + i), options));
      } else {
        // Generated input (journaled too — the journaling path derives
        // it from the durable tag so a replay regenerates nothing).
        futures.push_back(fleet.submit(net, /*batch=*/2, options));
      }
    }
    for (std::future<InferenceResult>& f : futures) {
      InferenceResult r = f.get();
      EXPECT_EQ(r.status, RequestStatus::kOk);
      EXPECT_NE(r.tag, 0u);
      out.by_tag.emplace(r.tag, std::move(r));
    }
    fleet.wait_idle();
    out.stats = fleet.stats();
    EXPECT_EQ(out.stats.submitted, 8);
    EXPECT_EQ(out.stats.completed, 8);
    EXPECT_EQ(out.stats.journal.records_appended,
              8 + 8 + out.stats.preemptions);  // SUBMIT+COMPLETE+CHECKPOINT
  }  // fleet and journal destroyed: file synced and closed
  out.journal_bytes = read_file(journal_path);
  return out;
}

TEST(Recovery, KillAtEveryRecordBoundary) {
  const Baseline base = run_baseline(temp_path("kill_boundary.jrnl"));
  ASSERT_EQ(base.by_tag.size(), 8u);

  const JournalLayout layout = journal_layout(base.journal_bytes);
  ASSERT_GE(layout.boundaries.size(), 17u);  // header + >= 16 records

  // Every clean cut: from "crashed before anything happened" (header
  // only — an empty journal recovers to an empty fleet) through "crashed
  // after the last terminal record" (nothing to replay).
  for (std::size_t i = 0; i < layout.boundaries.size(); ++i) {
    const CutVerdict v = verify_recovery_at_cut(
        base.journal_bytes, layout.boundaries[i], base.by_tag, base.chips,
        "boundary_" + std::to_string(i));
    EXPECT_FALSE(v.report.truncated_tail);
    if (i == 0) EXPECT_EQ(v.report.replayed, 0);
    if (i + 1 == layout.boundaries.size())
      EXPECT_EQ(v.report.replayed, 0) << "fully terminal log";
  }
}

TEST(Recovery, KillMidRecordTruncatesAndRecovers) {
  const Baseline base = run_baseline(temp_path("kill_midrec.jrnl"));
  const JournalLayout layout = journal_layout(base.journal_bytes);
  ASSERT_GE(layout.boundaries.size(), 4u);

  // A tear inside record k loses exactly record k: the recovery equals a
  // clean cut at the previous boundary, with the tear flagged.
  const std::size_t picks[] = {0, layout.boundaries.size() / 2,
                               layout.boundaries.size() - 2};
  for (const std::size_t k : picks) {
    const std::size_t cut = layout.boundaries[k] + 5;  // mid length-prefix
    const CutVerdict torn = verify_recovery_at_cut(
        base.journal_bytes, cut, base.by_tag, base.chips,
        "midrec_" + std::to_string(k));
    EXPECT_TRUE(torn.report.truncated_tail);
    const CutVerdict clean = verify_recovery_at_cut(
        base.journal_bytes, layout.boundaries[k], base.by_tag, base.chips,
        "midrec_clean_" + std::to_string(k));
    EXPECT_EQ(torn.report.replayed, clean.report.replayed);
  }
}

TEST(Recovery, RecoveryIsIdempotent) {
  const Baseline base = run_baseline(temp_path("idempotent.jrnl"));
  const JournalLayout layout = journal_layout(base.journal_bytes);

  // Crash mid-stream, recover with a *journaled* fleet, drain; the
  // recovery's own journal must analyze to "everything terminal" — a
  // second recovery replays nothing (requests are never duplicated).
  const std::size_t cut = layout.boundaries[layout.boundaries.size() / 2];
  const CutVerdict v =
      verify_recovery_at_cut(base.journal_bytes, cut, base.by_tag,
                             base.chips, "idem", /*journaled=*/true);
  ASSERT_FALSE(v.recovery_journal.empty());

  const JournalAnalysis again = analyze_journal_file(v.recovery_journal);
  EXPECT_EQ(again.submits, v.report.replayed);
  EXPECT_TRUE(again.in_flight.empty());

  FleetOptions opts;
  opts.chips = base.chips;
  Fleet second(opts);
  RecoveryReport rep2 = second.recover(v.recovery_journal);
  EXPECT_EQ(rep2.replayed, 0);
  EXPECT_TRUE(rep2.futures.empty());
}

TEST(Recovery, LivePreemptionCheckpointSurvivesTheCrash) {
  // End-to-end through the serving stack: a real preemption journals its
  // checkpoint via the fleet's checkpoint hook; cutting the journal
  // right after that record (the crash window between preemption and
  // completion) recovers the preempted request *from the checkpoint*,
  // bit-identical to its pre-crash result.
  const std::vector<ChipSpec> one_chip = {default_fleet_chips()[1]};
  const nn::NetworkModel net = tiny_net(3);

  // Keep the chip busy with slow (cycle-accurate) low-priority work so
  // the high-priority arrival preempts the first request. It can do so
  // only before that request reaches its last layer boundary, so the
  // urgent request is submitted once a request is executing, and the
  // first request's batch of 20 puts that boundary over 100 ms in (a
  // batch of 8 reaches it in ≈50 ms on one Xeon core, Release build), a
  // window no scheduler stall of a loaded host closes. The retries
  // remain a backstop.
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::string path =
        temp_path("live_ckpt_" + std::to_string(attempt) + ".jrnl");
    std::map<std::uint64_t, InferenceResult> by_tag;
    std::int64_t preemptions = 0;
    {
      Fleet fleet(journaled_fleet_options(path, one_chip));
      std::vector<std::future<InferenceResult>> futures;
      for (int i = 0; i < 3; ++i) {
        RequestOptions slow;
        slow.priority = 0;
        slow.exec_mode = chain::ExecMode::kCycleAccurate;
        futures.push_back(fleet.submit(
            net, request_input(net, i == 0 ? 20 : 2, 500 + i), slow));
      }
      // Routing looks plans up inside submit(), so the shared cache's
      // lookup count grows past this value only once a request executes
      // (or never, if every request already finished).
      const std::uint64_t routed = fleet.plan_cache()->stats().lookups();
      while (fleet.plan_cache()->stats().lookups() == routed &&
             futures.back().wait_for(std::chrono::milliseconds(1)) !=
                 std::future_status::ready) {
      }
      RequestOptions urgent;
      urgent.priority = 2;
      futures.push_back(
          fleet.submit(net, request_input(net, 1, 900), urgent));
      for (std::future<InferenceResult>& f : futures) {
        InferenceResult r = f.get();
        EXPECT_EQ(r.status, RequestStatus::kOk);
        by_tag.emplace(r.tag, std::move(r));
      }
      fleet.wait_idle();
      preemptions = fleet.stats().preemptions;
    }
    if (preemptions == 0) continue;  // urgent arrived too late; retry

    const std::string bytes = read_file(path);
    const JournalLayout layout = journal_layout(bytes);
    std::size_t after_checkpoint = 0;
    for (std::size_t i = 0; i < layout.types.size(); ++i)
      if (layout.types[i] == RecordType::kCheckpoint) {
        after_checkpoint = layout.boundaries[i + 1];
        break;
      }
    ASSERT_GT(after_checkpoint, 0u) << "preemption did not journal";

    const CutVerdict v = verify_recovery_at_cut(
        bytes, after_checkpoint, by_tag, one_chip, "live_ckpt");
    EXPECT_GE(v.report.resumed_from_checkpoint, 1);
    EXPECT_EQ(v.report.checkpoint_handoffs, 0);
    return;
  }
  FAIL() << "no preemption in 5 attempts — is the chip too fast?";
}

TEST(Recovery, CheckpointResumesBitIdenticalOnTheSameChip) {
  // Deterministic (no races): hand-author the exact journal a crash
  // between CHECKPOINT and COMPLETE leaves behind.
  const std::vector<ChipSpec> chips = default_fleet_chips();
  const ChipSpec& chip = chips[1];
  const nn::NetworkModel net = tiny_net(3);
  const Tensor<std::int16_t> input = request_input(net, 1, 77);
  const chain::AcceleratorConfig cfg = chip_config(chip);

  const std::shared_ptr<chain::RunCheckpoint> cp =
      capture_checkpoint(net, input, cfg, /*after_layers=*/2);
  ASSERT_NE(cp, nullptr);

  const std::string path = temp_path("handcrafted.jrnl");
  {
    Journal journal({path, 1});
    SubmitRecord rec;
    rec.tag = 5;
    rec.chip_name = chip.name;
    rec.net = net;
    rec.input = input;
    journal.append(encode_submit(rec));
    journal.append(encode_checkpoint_payload(5, chip.name, *cp));
  }

  FleetOptions opts;
  opts.chips = chips;
  Fleet fleet(opts);
  RecoveryReport rep = fleet.recover(path);
  EXPECT_EQ(rep.replayed, 1);
  EXPECT_EQ(rep.resumed_from_checkpoint, 1);
  EXPECT_EQ(rep.checkpoint_handoffs, 0);
  ASSERT_EQ(rep.futures.size(), 1u);
  EXPECT_EQ(rep.futures[0].first, 5u);

  const InferenceResult r = rep.futures[0].second.get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.chip, chip.name);
  EXPECT_TRUE(r.resumed);
  // Only the layer past the checkpoint actually re-executed, yet the
  // result equals the uninterrupted run bit for bit.
  const chain::NetworkRunResult reference = direct_run(net, input, cfg);
  std::string why;
  EXPECT_TRUE(network_runs_identical(reference, r.run, &why)) << why;
}

TEST(Recovery, CheckpointHandsOffWhenTheChipIsGone) {
  const std::vector<ChipSpec> all = default_fleet_chips();
  const ChipSpec& origin = all[0];  // present before the crash...
  const std::vector<ChipSpec> survivors = {all[2]};  // ...gone after

  const nn::NetworkModel net = tiny_net(3);
  const Tensor<std::int16_t> input = request_input(net, 1, 33);
  const std::shared_ptr<chain::RunCheckpoint> cp =
      capture_checkpoint(net, input, chip_config(origin),
                         /*after_layers=*/1);
  ASSERT_NE(cp, nullptr);

  const std::string path = temp_path("handoff.jrnl");
  {
    Journal journal({path, 1});
    SubmitRecord rec;
    rec.tag = 9;
    rec.chip_name = origin.name;
    rec.net = net;
    rec.input = input;
    journal.append(encode_submit(rec));
    journal.append(encode_checkpoint_payload(9, origin.name, *cp));
  }

  FleetOptions opts;
  opts.chips = survivors;
  Fleet fleet(opts);
  RecoveryReport rep = fleet.recover(path);
  EXPECT_EQ(rep.replayed, 1);
  EXPECT_EQ(rep.resumed_from_checkpoint, 1);
  EXPECT_EQ(rep.checkpoint_handoffs, 1);

  ASSERT_EQ(rep.futures.size(), 1u);
  const InferenceResult r = rep.futures[0].second.get();
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_EQ(r.chip, survivors[0].name);
  // Cross-chip resume re-plans the remaining layers: value identity on
  // every ofmap (cycle accounting is the new chip's — the PR-5
  // guarantee), against an uninterrupted run on the origin chip.
  const chain::NetworkRunResult reference =
      direct_run(net, input, chip_config(origin));
  ASSERT_EQ(r.run.layers.size(), reference.layers.size());
  for (std::size_t i = 0; i < reference.layers.size(); ++i)
    EXPECT_TRUE(r.run.layers[i].run.ofmaps ==
                reference.layers[i].run.ofmaps)
        << "ofmaps differ at layer " << i;
  EXPECT_TRUE(r.run.final_activations == reference.final_activations);

  fleet.wait_idle();
  EXPECT_EQ(fleet.stats().checkpoint_handoffs, 1);
}

TEST(Recovery, MissingOrGarbledJournalRefuses) {
  Fleet fleet{FleetOptions{}};
  EXPECT_THROW((void)fleet.recover(temp_path("never_written.jrnl")),
               JournalError);

  const std::string garbled = temp_path("garbled.jrnl");
  write_file(garbled, "this is not a journal at all, sorry");
  EXPECT_THROW((void)fleet.recover(garbled), JournalError);
}

}  // namespace
}  // namespace chainnn::serve
