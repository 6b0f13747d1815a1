// Journal framing + durable wire formats: torn tails truncate cleanly,
// checksum corruption is counted (not crashed on), version mismatches
// refuse, and every record/checkpoint codec round-trips bit for bit.
// The byte layouts under test are specified in docs/WIRE_FORMATS.md.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "serve/durable.hpp"
#include "serve/inference_server.hpp"
#include "serve/journal.hpp"

namespace chainnn::serve {
namespace {

std::string temp_path(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("chainnn_journal_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

void write_file(const std::string& path, const std::string& bytes) {
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
    l.validate();
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

// --- framing ---------------------------------------------------------------

TEST(JournalFraming, RoundTripsRecords) {
  std::string body;
  body += frame_record(encode_complete(1));
  body += frame_record(encode_cancel(2, CancelReason::kDeadline));
  body += frame_record(encode_reject(3));

  const JournalReadResult out = read_records(body);
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_FALSE(out.truncated_tail);
  EXPECT_EQ(out.checksum_errors, 0);
  EXPECT_EQ(out.valid_bytes, body.size());
  EXPECT_EQ(out.records[0].type, RecordType::kComplete);
  EXPECT_EQ(out.records[1].type, RecordType::kCancel);
  EXPECT_EQ(out.records[2].type, RecordType::kReject);
  EXPECT_EQ(decode_terminal(out.records[0].payload, out.records[0].type).tag,
            1u);
  const TerminalRecord cancel =
      decode_terminal(out.records[1].payload, out.records[1].type);
  EXPECT_EQ(cancel.tag, 2u);
  EXPECT_EQ(cancel.reason, CancelReason::kDeadline);
  EXPECT_EQ(decode_terminal(out.records[2].payload, out.records[2].type).tag,
            3u);
}

TEST(JournalFraming, TornTailTruncatesCleanly) {
  std::string body;
  body += frame_record(encode_complete(1));
  body += frame_record(encode_complete(2));
  const std::size_t boundary = body.size();
  body += frame_record(encode_complete(3));

  // Every possible tear inside the final record loses exactly that
  // record, flags the tear, and keeps the prefix intact.
  for (std::size_t cut = boundary + 1; cut < body.size(); ++cut) {
    const JournalReadResult out = read_records(body.substr(0, cut));
    ASSERT_EQ(out.records.size(), 2u) << "cut at " << cut;
    EXPECT_TRUE(out.truncated_tail) << "cut at " << cut;
    EXPECT_EQ(out.checksum_errors, 0) << "cut at " << cut;
    EXPECT_EQ(out.valid_bytes, boundary) << "cut at " << cut;
  }
  // A cut exactly on a record boundary is not a tear.
  const JournalReadResult clean = read_records(body.substr(0, boundary));
  EXPECT_EQ(clean.records.size(), 2u);
  EXPECT_FALSE(clean.truncated_tail);
}

TEST(JournalFraming, ChecksumCorruptionIsCountedNotFatal) {
  const std::string first = frame_record(encode_complete(1));
  std::string body = first;
  body += frame_record(encode_complete(2));
  body += frame_record(encode_complete(3));

  // Flip one payload byte of the middle record: the reader keeps the
  // clean prefix, counts exactly one checksum error, and stops (nothing
  // after a corrupt record can be trusted).
  std::string corrupt = body;
  corrupt[first.size() + 12] ^= 0x01;
  const JournalReadResult out = read_records(corrupt);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.checksum_errors, 1);
  EXPECT_FALSE(out.truncated_tail);
  EXPECT_EQ(out.valid_bytes, first.size());

  // Corrupting the stored checksum itself is the same verdict.
  std::string bad_sum = body;
  bad_sum[first.size() + 5] ^= 0x80;
  const JournalReadResult out2 = read_records(bad_sum);
  EXPECT_EQ(out2.records.size(), 1u);
  EXPECT_EQ(out2.checksum_errors, 1);
}

TEST(JournalFraming, HeaderValidation) {
  // Missing file.
  EXPECT_THROW((void)read_journal_file(temp_path("nonexistent.jrnl")),
               JournalError);

  // Version mismatch refuses, older (the previous format's CHECKPOINT
  // records carry each layer's accumulators) and newer alike.
  const std::string path = temp_path("version.jrnl");
  for (const std::uint32_t version :
       {kJournalFormatVersion - 1, kJournalFormatVersion + 1}) {
    ByteWriter w;
    for (const char c : kJournalMagic) w.u8(static_cast<std::uint8_t>(c));
    w.u32(version);
    write_file(path, w.take());
    EXPECT_THROW((void)read_journal_file(path), JournalError) << version;
  }

  // Wrong magic refuses.
  {
    ByteWriter w;
    // 7 chars + NUL: the header's 8 bytes, all but the last wrong.
    for (const char c : "NOTJRNL") w.u8(static_cast<std::uint8_t>(c));
    w.u32(kJournalFormatVersion);
    write_file(path, w.take());
  }
  EXPECT_THROW((void)read_journal_file(path), JournalError);

  // Shorter than a header refuses.
  write_file(path, "CNN");
  EXPECT_THROW((void)read_journal_file(path), JournalError);
}

TEST(Journal, EmptyJournalIsAJournal) {
  const std::string path = temp_path("empty.jrnl");
  { Journal journal({path, 1}); }
  const JournalReadResult out = read_journal_file(path);
  EXPECT_TRUE(out.records.empty());
  EXPECT_FALSE(out.truncated_tail);
  EXPECT_EQ(out.checksum_errors, 0);

  const JournalAnalysis analysis = analyze_journal_file(path);
  EXPECT_EQ(analysis.submits, 0);
  EXPECT_TRUE(analysis.in_flight.empty());
}

TEST(Journal, AppendsAndFsyncBatching) {
  const std::string path = temp_path("writer.jrnl");
  {
    Journal journal({path, /*fsync_every_records=*/3});
    for (std::uint64_t tag = 1; tag <= 7; ++tag)
      journal.append(encode_complete(tag));
    const JournalStats stats = journal.stats();
    EXPECT_EQ(stats.records_appended, 7);
    EXPECT_GT(stats.bytes_appended, 0);
    EXPECT_EQ(stats.fsyncs, 2);  // after records 3 and 6
    journal.sync();
    EXPECT_EQ(journal.stats().fsyncs, 3);
  }
  const JournalReadResult out = read_journal_file(path);
  ASSERT_EQ(out.records.size(), 7u);
  for (std::uint64_t tag = 1; tag <= 7; ++tag)
    EXPECT_EQ(decode_terminal(out.records[tag - 1].payload,
                              out.records[tag - 1].type)
                  .tag,
              tag);
}

TEST(Journal, FsyncFailureThrowsAndIsNotCounted) {
  // fsync on /dev/null fails (EINVAL on Linux) while write() succeeds, so
  // this isolates the fsync path: both the batched fsync in append() and
  // an explicit sync() must surface the failure, and neither counts.
  Journal journal({"/dev/null", /*fsync_every_records=*/1});
  EXPECT_THROW(journal.append(encode_complete(1)), JournalError);
  EXPECT_THROW(journal.sync(), JournalError);
  EXPECT_EQ(journal.stats().records_appended, 1);
  EXPECT_EQ(journal.stats().fsyncs, 0);
}

TEST(Journal, ConcurrentAppendsNeverInterleave) {
  const std::string path = temp_path("concurrent.jrnl");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 64;
  {
    Journal journal({path, /*fsync_every_records=*/0});
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&journal, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
          journal.append(encode_complete(
              static_cast<std::uint64_t>(t) * kPerThread + i + 1));
      });
    for (std::thread& t : threads) t.join();
  }
  // Every record parses clean: appends serialized, none torn or mixed.
  const JournalReadResult out = read_journal_file(path);
  EXPECT_EQ(out.records.size(), kThreads * kPerThread);
  EXPECT_FALSE(out.truncated_tail);
  EXPECT_EQ(out.checksum_errors, 0);
}

// --- record codecs ---------------------------------------------------------

TEST(DurableCodecs, SubmitRecordRoundTrips) {
  SubmitRecord rec;
  rec.tag = 42;
  rec.chip_name = "pe576";
  rec.net = tiny_net(3);
  rec.input = request_input(rec.net, 2, 99);
  rec.priority = -3;
  rec.exec_mode = chain::ExecMode::kCycleAccurate;
  chain::InterLayerOp op;
  op.relu = true;
  op.pool = true;
  op.pool_params.window = 2;
  op.pool_params.stride = 2;
  rec.inter_layer = {op, {}};

  // encode_* emits the full payload (leading type byte, as the journal
  // wants it); decode_* takes the bytes after the type byte, as the
  // framing reader hands them out.
  const std::string enc = encode_submit(rec);
  ASSERT_EQ(static_cast<RecordType>(enc[0]), RecordType::kSubmit);
  const SubmitRecord back =
      decode_submit(std::string_view(enc).substr(1));
  EXPECT_EQ(back.tag, rec.tag);
  EXPECT_EQ(back.chip_name, rec.chip_name);
  EXPECT_EQ(back.net.name, rec.net.name);
  ASSERT_EQ(back.net.conv_layers.size(), rec.net.conv_layers.size());
  for (std::size_t i = 0; i < rec.net.conv_layers.size(); ++i) {
    EXPECT_EQ(back.net.conv_layers[i].name, rec.net.conv_layers[i].name);
    EXPECT_EQ(back.net.conv_layers[i].out_channels,
              rec.net.conv_layers[i].out_channels);
  }
  EXPECT_TRUE(back.input == rec.input);
  EXPECT_EQ(back.priority, rec.priority);
  ASSERT_TRUE(back.exec_mode.has_value());
  EXPECT_EQ(*back.exec_mode, chain::ExecMode::kCycleAccurate);
  ASSERT_EQ(back.inter_layer.size(), 2u);
  EXPECT_TRUE(back.inter_layer[0].relu);
  EXPECT_TRUE(back.inter_layer[0].pool);
  EXPECT_EQ(back.inter_layer[0].pool_params.window, 2);
  EXPECT_TRUE(back.inter_layer[1].relu);  // default InterLayerOp
  EXPECT_FALSE(back.inter_layer[1].pool);

  // The defaults side: every optional absent.
  SubmitRecord plain;
  plain.tag = 7;
  plain.net = tiny_net(1);
  plain.input = request_input(plain.net, 1, 5);
  const std::string plain_enc = encode_submit(plain);
  const SubmitRecord plain_back =
      decode_submit(std::string_view(plain_enc).substr(1));
  EXPECT_FALSE(plain_back.exec_mode.has_value());
  EXPECT_TRUE(plain_back.inter_layer.empty());
}

// A real mid-run checkpoint: run one layer, preempt at the boundary.
std::shared_ptr<chain::RunCheckpoint> capture_checkpoint(
    const nn::NetworkModel& net, const Tensor<std::int16_t>& input,
    const chain::AcceleratorConfig& cfg, int after_layers) {
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  chain::NetworkRunOptions ro;
  int boundary = 0;
  ro.preempt_check = [&boundary, after_layers] {
    return boundary++ == after_layers;
  };
  try {
    (void)runner.run(net, input, ro);
  } catch (const chain::RunPreempted& preempted) {
    return preempted.checkpoint();
  }
  ADD_FAILURE() << "run was not preempted";
  return nullptr;
}

TEST(DurableCodecs, CheckpointRoundTripsAndResumesBitIdentical) {
  const nn::NetworkModel net = tiny_net(3);
  const Tensor<std::int16_t> input = request_input(net, 1, 11);
  const chain::AcceleratorConfig cfg = analytical_accelerator_config();

  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  const chain::NetworkRunResult undisturbed = runner.run(net, input, {});

  // Every interior boundary: the resume re-draws the default weights of
  // all completed layers, not just the first.
  for (const int after_layers : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "after layer " << after_layers);
    const std::shared_ptr<chain::RunCheckpoint> cp =
        capture_checkpoint(net, input, cfg, after_layers);
    ASSERT_NE(cp, nullptr);
    ASSERT_EQ(cp->next_layer, after_layers);

    const std::string payload = encode_checkpoint_payload(99, "pe576", *cp);
    // Skip the type byte the framing would strip.
    const CheckpointRecord back = decode_checkpoint_record(
        std::string_view(payload).substr(1));
    EXPECT_EQ(back.tag, 99u);
    EXPECT_EQ(back.chip_name, "pe576");
    const chain::RunCheckpoint& rcp = back.checkpoint;
    ASSERT_EQ(rcp.next_layer, cp->next_layer);
    ASSERT_EQ(rcp.layers.size(), cp->layers.size());
    for (std::size_t i = 0; i < cp->layers.size(); ++i) {
      EXPECT_TRUE(rcp.layers[i].run.ofmaps == cp->layers[i].run.ofmaps);
      EXPECT_TRUE(rcp.layers[i].run.narrowing == cp->layers[i].run.narrowing);
      EXPECT_EQ(rcp.layers[i].run.stats.total_cycles(),
                cp->layers[i].run.stats.total_cycles());
      EXPECT_EQ(rcp.layers[i].run.traffic, cp->layers[i].run.traffic);
      EXPECT_EQ(rcp.layers[i].verified, cp->layers[i].verified);
    }
    EXPECT_TRUE(rcp.activations == cp->activations);

    // Load-bearing property: resuming the *decoded* checkpoint equals the
    // uninterrupted run bit for bit (ofmaps, cycles, traffic).
    chain::NetworkRunOptions resume_opts;
    resume_opts.resume = std::make_shared<chain::RunCheckpoint>(rcp);
    const chain::NetworkRunResult resumed =
        runner.run(net, input, resume_opts);
    std::string why;
    EXPECT_TRUE(network_runs_identical(undisturbed, resumed, &why)) << why;
  }
}

TEST(DurableCodecs, AnalyzeJournalFindsInFlightRequests) {
  const nn::NetworkModel net = tiny_net(2);
  const chain::AcceleratorConfig cfg = analytical_accelerator_config();
  const std::string path = temp_path("analyze.jrnl");
  {
    Journal journal({path, 1});
    for (std::uint64_t tag = 1; tag <= 4; ++tag) {
      SubmitRecord rec;
      rec.tag = tag;
      rec.chip_name = "pe576";
      rec.net = net;
      rec.input = request_input(net, 1, tag);
      journal.append(encode_submit(rec));
    }
    const Tensor<std::int16_t> input3 = request_input(net, 1, 3);
    const std::shared_ptr<chain::RunCheckpoint> cp =
        capture_checkpoint(net, input3, cfg, /*after_layers=*/1);
    ASSERT_NE(cp, nullptr);
    journal.append(encode_checkpoint_payload(3, "pe576", *cp));
    journal.append(encode_complete(1));
    journal.append(encode_cancel(2, CancelReason::kToken));
  }

  const JournalAnalysis a = analyze_journal_file(path);
  EXPECT_EQ(a.submits, 4);
  EXPECT_EQ(a.completed, 1);
  EXPECT_EQ(a.cancelled, 1);
  EXPECT_EQ(a.rejected, 0);
  EXPECT_EQ(a.checkpoints, 1);
  EXPECT_EQ(a.max_tag, 4u);
  ASSERT_EQ(a.in_flight.size(), 2u);
  // Submission order, with the checkpoint attached to the right tag.
  EXPECT_EQ(a.in_flight[0].submit.tag, 3u);
  ASSERT_NE(a.in_flight[0].checkpoint, nullptr);
  EXPECT_EQ(a.in_flight[0].checkpoint->next_layer, 1);
  EXPECT_EQ(a.in_flight[0].checkpoint_chip, "pe576");
  EXPECT_EQ(a.in_flight[1].submit.tag, 4u);
  EXPECT_EQ(a.in_flight[1].checkpoint, nullptr);

  // Pure analysis: the same file analyzes identically every time
  // (recovery idempotence is built on this).
  const JournalAnalysis b = analyze_journal_file(path);
  EXPECT_EQ(b.submits, a.submits);
  ASSERT_EQ(b.in_flight.size(), a.in_flight.size());
  for (std::size_t i = 0; i < a.in_flight.size(); ++i)
    EXPECT_EQ(b.in_flight[i].submit.tag, a.in_flight[i].submit.tag);
}

}  // namespace
}  // namespace chainnn::serve
