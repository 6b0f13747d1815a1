// Durable serving state — wire formats over the journal framing.
//
// Everything here rides the record framing of serve/journal.hpp; the
// byte layouts are specified normatively in docs/WIRE_FORMATS.md. Two
// design decisions carry the whole file:
//
//   * ExecutionPlan is a pure function of (layer, array, memory) —
//     dataflow::plan_layer — so plans are serialized as those three
//     inputs and re-planned on load, field-for-field identical to the
//     original (the same purity the PlanCache is built on). That keeps
//     checkpoint records small and the format stable against internal
//     plan-structure changes.
//   * chain::RunCheckpoint is captured only at layer boundaries, where
//     the accelerator holds no in-flight state, so its serialization is
//     exhaustive by construction: the executed layer prefix (results
//     with RunStats / traffic / power verbatim) and the boundary
//     activations. The default weights need no state: a resume re-draws
//     the completed layers' kernels from the fixed seed (see
//     chain::RunCheckpoint). Resuming a loaded checkpoint on the same
//     chip is bit-identical to the uninterrupted run; on a different
//     chip the remaining layers re-plan and the ofmaps stay
//     value-identical (the guarantee the router's cross-chip handoff
//     leans on).
//
// The journal's request records (SUBMIT / CHECKPOINT / COMPLETE /
// CANCEL / REJECT) live here, plus analyze_journal — the pure replay
// analysis Fleet::recover() is built on (pure so that recovering twice
// from the same bytes reconstructs the same in-flight set).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "nn/models.hpp"
#include "serve/journal.hpp"

namespace chainnn::serve {

// --- journal request records -----------------------------------------------

// Everything a SUBMIT record persists about a request: enough to replay
// it from scratch after a crash. Wall-clock scheduling state
// (deadline_ms, admission, cancel tokens) is deliberately *not*
// replayed — a deadline is a budget from the original submission
// instant, which does not survive a restart — and weight_init functions
// cannot be persisted (recovered replays draw the default deterministic
// weight stream, the serving common case).
struct SubmitRecord {
  std::uint64_t tag = 0;     // fleet-wide journal id (RequestOptions::tag)
  std::string chip_name;     // chip the router placed the request on
  nn::NetworkModel net;
  Tensor<std::int16_t> input;
  std::int64_t priority = 0;
  std::optional<chain::ExecMode> exec_mode;
  std::vector<chain::InterLayerOp> inter_layer;
};

[[nodiscard]] std::string encode_submit(const SubmitRecord& rec);
[[nodiscard]] SubmitRecord decode_submit(std::string_view payload);

struct CheckpointRecord {
  std::uint64_t tag = 0;
  std::string chip_name;  // chip the checkpoint was captured on
  chain::RunCheckpoint checkpoint;
};

// Encodes a CHECKPOINT payload from its parts, without materializing a
// CheckpointRecord (a checkpoint owns every banked ofmap tensor, so the
// struct copy would dwarf the encode itself on the preemption hot path).
[[nodiscard]] std::string encode_checkpoint_payload(
    std::uint64_t tag, std::string_view chip_name,
    const chain::RunCheckpoint& cp);
[[nodiscard]] CheckpointRecord decode_checkpoint_record(
    std::string_view payload);

// Why a CANCEL record was written (terminal outcomes that are not kOk).
enum class CancelReason : std::uint8_t {
  kToken = 0,     // cancel token / non-deadline cancellation
  kDeadline = 1,  // deadline expired before or during the run
  kFailed = 2,    // the request threw (promise carried the error)
};

[[nodiscard]] std::string encode_complete(std::uint64_t tag);
[[nodiscard]] std::string encode_cancel(std::uint64_t tag,
                                        CancelReason reason);
[[nodiscard]] std::string encode_reject(std::uint64_t tag);

struct TerminalRecord {
  std::uint64_t tag = 0;
  CancelReason reason = CancelReason::kToken;  // kCancel records only
};
[[nodiscard]] TerminalRecord decode_terminal(std::string_view payload,
                                             RecordType type);

// --- replay analysis -------------------------------------------------------

struct InFlightRequest {
  SubmitRecord submit;
  // Last CHECKPOINT captured before the crash; null = replay from
  // scratch.
  std::shared_ptr<chain::RunCheckpoint> checkpoint;
  std::string checkpoint_chip;  // where it was captured (empty if none)
};

struct JournalAnalysis {
  std::int64_t submits = 0;
  std::int64_t completed = 0;
  std::int64_t cancelled = 0;
  std::int64_t rejected = 0;
  std::int64_t checkpoints = 0;
  std::uint64_t max_tag = 0;
  // SUBMITs with no terminal record in the log, in submission order —
  // exactly the requests a recovery must resubmit.
  std::vector<InFlightRequest> in_flight;
  bool truncated_tail = false;
  std::int64_t checksum_errors = 0;
};

// Pure: the same records always produce the same analysis, which is what
// makes recovery idempotent (recover, complete, journal again — the
// second log analyzes to an empty in-flight set).
[[nodiscard]] JournalAnalysis analyze_journal(const JournalReadResult& log);
// read_journal_file + analyze_journal (throws JournalError on a missing
// file, bad magic or version mismatch).
[[nodiscard]] JournalAnalysis analyze_journal_file(const std::string& path);

}  // namespace chainnn::serve
