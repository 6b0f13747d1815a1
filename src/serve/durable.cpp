#include "serve/durable.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "dataflow/plan.hpp"

namespace chainnn::serve {

namespace {

// Guards against a corrupted-but-checksum-valid (or adversarial) count
// field committing the reader to a multi-gigabyte allocation.
constexpr std::uint64_t kMaxReasonableCount = 1ull << 24;

void check_count(std::uint64_t n, const char* what) {
  if (n > kMaxReasonableCount)
    throw JournalError(std::string("implausible ") + what + " count in " +
                       "journal payload: " + std::to_string(n));
}

// --- component serializers -------------------------------------------------

void write_layer_params(ByteWriter& w, const nn::ConvLayerParams& p) {
  w.str(p.name);
  w.i64(p.batch);
  w.i64(p.in_channels);
  w.i64(p.out_channels);
  w.i64(p.in_height);
  w.i64(p.in_width);
  w.i64(p.kernel);
  w.i64(p.stride);
  w.i64(p.pad);
  w.i64(p.groups);
  w.i64(p.pad_h);
  w.i64(p.pad_w);
}

nn::ConvLayerParams read_layer_params(ByteReader& r) {
  nn::ConvLayerParams p;
  p.name = r.str();
  p.batch = r.i64();
  p.in_channels = r.i64();
  p.out_channels = r.i64();
  p.in_height = r.i64();
  p.in_width = r.i64();
  p.kernel = r.i64();
  p.stride = r.i64();
  p.pad = r.i64();
  p.groups = r.i64();
  p.pad_h = r.i64();
  p.pad_w = r.i64();
  return p;
}

void write_array_shape(ByteWriter& w, const dataflow::ArrayShape& a) {
  w.i64(a.num_pes);
  w.i64(a.kmem_words_per_pe);
  w.f64(a.clock_hz);
  w.i64(a.pipeline_stages);
  w.u8(a.dual_channel ? 1 : 0);
}

dataflow::ArrayShape read_array_shape(ByteReader& r) {
  dataflow::ArrayShape a;
  a.num_pes = r.i64();
  a.kmem_words_per_pe = r.i64();
  a.clock_hz = r.f64();
  a.pipeline_stages = static_cast<int>(r.i64());
  a.dual_channel = r.u8() != 0;
  return a;
}

void write_hierarchy(ByteWriter& w, const mem::HierarchyConfig& m) {
  w.u64(m.imemory_bytes);
  w.u64(m.omemory_bytes);
  w.u64(m.kmemory_bytes);
  w.u64(m.word_bytes);
}

mem::HierarchyConfig read_hierarchy(ByteReader& r) {
  mem::HierarchyConfig m;
  m.imemory_bytes = r.u64();
  m.omemory_bytes = r.u64();
  m.kmemory_bytes = r.u64();
  m.word_bytes = r.u64();
  return m;
}

void write_shape(ByteWriter& w, const Shape& s) {
  w.u64(s.rank());
  for (const std::int64_t d : s.dims()) w.i64(d);
}

Shape read_shape(ByteReader& r) {
  const std::uint64_t rank = r.u64();
  check_count(rank, "tensor rank");
  std::vector<std::int64_t> dims;
  dims.reserve(rank);
  for (std::uint64_t i = 0; i < rank; ++i) dims.push_back(r.i64());
  return Shape(std::move(dims));
}

void write_tensor_i16(ByteWriter& w, const Tensor<std::int16_t>& t) {
  write_shape(w, t.shape());
  w.i16_span(t.data());
}

Tensor<std::int16_t> read_tensor_i16(ByteReader& r) {
  Shape shape = read_shape(r);
  std::vector<std::int16_t> data = r.i16_vec();
  return Tensor<std::int16_t>(std::move(shape), std::move(data));
}

// --- RunCheckpoint ---------------------------------------------------------

void write_run_stats(ByteWriter& w, const chain::RunStats& s) {
  w.i64(s.kernel_load_cycles);
  w.i64(s.stream_cycles);
  w.i64(s.drain_cycles);
  w.i64(s.windows_collected);
  w.i64(s.macs_performed);
  w.i64(s.passes);
}

chain::RunStats read_run_stats(ByteReader& r) {
  chain::RunStats s;
  s.kernel_load_cycles = r.i64();
  s.stream_cycles = r.i64();
  s.drain_cycles = r.i64();
  s.windows_collected = r.i64();
  s.macs_performed = r.i64();
  s.passes = r.i64();
  return s;
}

void write_traffic(ByteWriter& w, const dataflow::LayerTraffic& t) {
  w.u64(t.dram_ifmap);
  w.u64(t.dram_kernel);
  w.u64(t.dram_ofmap);
  w.u64(t.dram_psum);
  w.u64(t.imem_reads);
  w.u64(t.imem_writes);
  w.u64(t.kmem_reads);
  w.u64(t.kmem_writes);
  w.u64(t.omem_reads);
  w.u64(t.omem_writes);
}

dataflow::LayerTraffic read_traffic(ByteReader& r) {
  dataflow::LayerTraffic t;
  t.dram_ifmap = r.u64();
  t.dram_kernel = r.u64();
  t.dram_ofmap = r.u64();
  t.dram_psum = r.u64();
  t.imem_reads = r.u64();
  t.imem_writes = r.u64();
  t.kmem_reads = r.u64();
  t.kmem_writes = r.u64();
  t.omem_reads = r.u64();
  t.omem_writes = r.u64();
  return t;
}

void write_narrowing(ByteWriter& w, const fixed::NarrowingStats& n) {
  w.u64(n.count);
  w.u64(n.saturations);
  w.u64(n.invalids);
  w.f64(n.max_abs_error);
  w.f64(n.sum_sq_error);
}

fixed::NarrowingStats read_narrowing(ByteReader& r) {
  fixed::NarrowingStats n;
  n.count = r.u64();
  n.saturations = r.u64();
  n.invalids = r.u64();
  n.max_abs_error = r.f64();
  n.sum_sq_error = r.f64();
  return n;
}

void write_power(ByteWriter& w, const energy::PowerBreakdown& p) {
  w.f64(p.chain_w);
  w.f64(p.kmem_w);
  w.f64(p.imem_w);
  w.f64(p.omem_w);
}

energy::PowerBreakdown read_power(ByteReader& r) {
  energy::PowerBreakdown p;
  p.chain_w = r.f64();
  p.kmem_w = r.f64();
  p.imem_w = r.f64();
  p.omem_w = r.f64();
  return p;
}

void write_layer_run_result(ByteWriter& w, const chain::LayerRunResult& lr) {
  // The plan is a pure function of these three inputs (plan_layer), so
  // serializing them IS serializing the plan — the reader re-derives it
  // field for field.
  write_layer_params(w, lr.plan.layer);
  write_array_shape(w, lr.plan.array);
  write_hierarchy(w, lr.plan.memory);
  write_tensor_i16(w, lr.ofmaps);
  write_run_stats(w, lr.stats);
  write_traffic(w, lr.traffic);
  write_narrowing(w, lr.narrowing);
}

chain::LayerRunResult read_layer_run_result(ByteReader& r) {
  const nn::ConvLayerParams layer = read_layer_params(r);
  const dataflow::ArrayShape array = read_array_shape(r);
  const mem::HierarchyConfig memory = read_hierarchy(r);
  chain::LayerRunResult lr;
  lr.plan = dataflow::plan_layer(layer, array, memory);
  lr.ofmaps = read_tensor_i16(r);
  lr.stats = read_run_stats(r);
  lr.traffic = read_traffic(r);
  lr.narrowing = read_narrowing(r);
  return lr;
}

void write_network_layer_result(ByteWriter& w,
                                const chain::NetworkLayerResult& nl) {
  write_layer_params(w, nl.layer);
  write_layer_run_result(w, nl.run);
  write_power(w, nl.power);
  w.u8(nl.verified ? 1 : 0);
}

chain::NetworkLayerResult read_network_layer_result(ByteReader& r) {
  chain::NetworkLayerResult nl;
  nl.layer = read_layer_params(r);
  nl.run = read_layer_run_result(r);
  nl.power = read_power(r);
  nl.verified = r.u8() != 0;
  return nl;
}

void write_checkpoint(ByteWriter& w, const chain::RunCheckpoint& cp) {
  w.i64(cp.next_layer);
  w.u64(cp.layers.size());
  for (const chain::NetworkLayerResult& nl : cp.layers)
    write_network_layer_result(w, nl);
  write_tensor_i16(w, cp.activations);
}

// Re-plans each layer's ExecutionPlan via dataflow::plan_layer (pure, so
// the result is field-for-field the plan that was serialized).
chain::RunCheckpoint read_checkpoint(ByteReader& r) {
  chain::RunCheckpoint cp;
  cp.next_layer = r.i64();
  const std::uint64_t n = r.u64();
  check_count(n, "checkpoint layer");
  cp.layers.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    cp.layers.push_back(read_network_layer_result(r));
  cp.activations = read_tensor_i16(r);
  return cp;
}

// --- journal request records -----------------------------------------------

void write_inter_layer(ByteWriter& w,
                       const std::vector<chain::InterLayerOp>& ops) {
  w.u64(ops.size());
  for (const chain::InterLayerOp& op : ops) {
    w.u8(op.relu ? 1 : 0);
    w.u8(op.pool ? 1 : 0);
    w.i64(op.pool_params.window);
    w.i64(op.pool_params.stride);
    w.i64(op.pool_params.pad);
  }
}

std::vector<chain::InterLayerOp> read_inter_layer(ByteReader& r) {
  const std::uint64_t n = r.u64();
  check_count(n, "inter-layer op");
  std::vector<chain::InterLayerOp> ops;
  ops.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    chain::InterLayerOp op;
    op.relu = r.u8() != 0;
    op.pool = r.u8() != 0;
    op.pool_params.window = r.i64();
    op.pool_params.stride = r.i64();
    op.pool_params.pad = r.i64();
    ops.push_back(op);
  }
  return ops;
}

void write_network_model(ByteWriter& w, const nn::NetworkModel& net) {
  w.str(net.name);
  w.u64(net.conv_layers.size());
  for (const nn::ConvLayerParams& l : net.conv_layers)
    write_layer_params(w, l);
}

nn::NetworkModel read_network_model(ByteReader& r) {
  nn::NetworkModel net;
  net.name = r.str();
  const std::uint64_t n = r.u64();
  check_count(n, "network layer");
  net.conv_layers.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    net.conv_layers.push_back(read_layer_params(r));
  return net;
}

}  // namespace

std::string encode_submit(const SubmitRecord& rec) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::kSubmit));
  w.u64(rec.tag);
  w.str(rec.chip_name);
  write_network_model(w, rec.net);
  write_tensor_i16(w, rec.input);
  w.i64(rec.priority);
  w.u8(rec.exec_mode ? 1 : 0);
  if (rec.exec_mode)
    w.u8(*rec.exec_mode == chain::ExecMode::kAnalytical ? 1 : 0);
  write_inter_layer(w, rec.inter_layer);
  return w.take();
}

SubmitRecord decode_submit(std::string_view payload) {
  ByteReader r(payload);
  SubmitRecord rec;
  rec.tag = r.u64();
  rec.chip_name = r.str();
  rec.net = read_network_model(r);
  rec.input = read_tensor_i16(r);
  rec.priority = r.i64();
  if (r.u8() != 0)
    rec.exec_mode = r.u8() != 0 ? chain::ExecMode::kAnalytical
                                : chain::ExecMode::kCycleAccurate;
  rec.inter_layer = read_inter_layer(r);
  return rec;
}

std::string encode_checkpoint_payload(std::uint64_t tag,
                                      std::string_view chip_name,
                                      const chain::RunCheckpoint& cp) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::kCheckpoint));
  w.u64(tag);
  w.str(chip_name);
  write_checkpoint(w, cp);
  return w.take();
}

CheckpointRecord decode_checkpoint_record(std::string_view payload) {
  ByteReader r(payload);
  CheckpointRecord rec;
  rec.tag = r.u64();
  rec.chip_name = r.str();
  rec.checkpoint = read_checkpoint(r);
  return rec;
}

std::string encode_complete(std::uint64_t tag) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::kComplete));
  w.u64(tag);
  return w.take();
}

std::string encode_cancel(std::uint64_t tag, CancelReason reason) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::kCancel));
  w.u64(tag);
  w.u8(static_cast<std::uint8_t>(reason));
  return w.take();
}

std::string encode_reject(std::uint64_t tag) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::kReject));
  w.u64(tag);
  return w.take();
}

TerminalRecord decode_terminal(std::string_view payload, RecordType type) {
  ByteReader r(payload);
  TerminalRecord rec;
  rec.tag = r.u64();
  if (type == RecordType::kCancel)
    rec.reason = static_cast<CancelReason>(r.u8());
  return rec;
}

// --- replay analysis -------------------------------------------------------

JournalAnalysis analyze_journal(const JournalReadResult& log) {
  JournalAnalysis out;
  out.truncated_tail = log.truncated_tail;
  out.checksum_errors = log.checksum_errors;

  // Submission-ordered; an index map resolves later records by tag.
  std::vector<InFlightRequest> by_order;
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::unordered_map<std::uint64_t, bool> terminal;

  for (const JournalRecord& rec : log.records) {
    switch (rec.type) {
      case RecordType::kSubmit: {
        InFlightRequest req;
        req.submit = decode_submit(rec.payload);
        out.max_tag = std::max(out.max_tag, req.submit.tag);
        ++out.submits;
        index[req.submit.tag] = by_order.size();
        terminal[req.submit.tag] = false;
        by_order.push_back(std::move(req));
        break;
      }
      case RecordType::kCheckpoint: {
        CheckpointRecord cp = decode_checkpoint_record(rec.payload);
        ++out.checkpoints;
        const auto it = index.find(cp.tag);
        if (it == index.end()) break;  // checkpoint for an unknown tag
        by_order[it->second].checkpoint =
            std::make_shared<chain::RunCheckpoint>(std::move(cp.checkpoint));
        by_order[it->second].checkpoint_chip = std::move(cp.chip_name);
        break;
      }
      case RecordType::kComplete:
      case RecordType::kCancel:
      case RecordType::kReject: {
        const TerminalRecord t = decode_terminal(rec.payload, rec.type);
        if (rec.type == RecordType::kComplete)
          ++out.completed;
        else if (rec.type == RecordType::kCancel)
          ++out.cancelled;
        else
          ++out.rejected;
        const auto it = terminal.find(t.tag);
        if (it != terminal.end()) it->second = true;
        break;
      }
    }
  }

  for (InFlightRequest& req : by_order)
    if (!terminal[req.submit.tag]) out.in_flight.push_back(std::move(req));
  return out;
}

JournalAnalysis analyze_journal_file(const std::string& path) {
  return analyze_journal(read_journal_file(path));
}

}  // namespace chainnn::serve
