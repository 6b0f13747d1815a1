// Journal — append-only, checksummed record log for durable serving.
//
// This is the framing layer of the durability stack (see
// docs/WIRE_FORMATS.md for the normative spec): a journal file is an
// 8-byte magic + 4-byte format version header followed by records of
//
//   [u32 payload_len][u64 fnv1a64(payload)][payload bytes]
//
// with every multi-byte integer little-endian. The first payload byte is
// the RecordType; everything after it is type-specific (encoded by
// serve/durable.hpp). The framing gives crash recovery its two load-
// bearing properties:
//
//   * A torn tail — a record the process was mid-append on when it died
//     — is detected (fewer bytes than the length prefix promises) and
//     cleanly ignored: the reader returns the valid prefix and flags
//     truncated_tail. A crash therefore loses at most the record being
//     written, never the ability to parse the log.
//   * Corruption anywhere is caught by the per-record FNV-1a checksum:
//     the reader stops at the first mismatching record, counts it in
//     checksum_errors, and returns the records before it — an error
//     verdict, not a crash.
//
// A version mismatch in the header is a refusal (JournalError): a new
// binary never silently misreads an old log, and vice versa.
//
// Journal (the writer) is thread-safe: appends serialize under one
// mutex, each append is a single write() call (so concurrent journals to
// the same fd never interleave a record), and fsync batching is
// controlled by JournalOptions::fsync_every_records.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"

namespace chainnn::serve {

// --- byte-level primitives (little-endian, fixed-width) --------------------

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // IEEE-754 bits, little-endian
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s);
  }
  void i16_span(std::span<const std::int16_t> v);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Thrown on any malformed input the reader cannot continue past:
// truncated payloads during decode, bad magic, version mismatch.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::int16_t> i16_vec();

  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n)
      throw JournalError("journal payload truncated: need " +
                         std::to_string(n) + " byte(s), have " +
                         std::to_string(bytes_.size() - pos_));
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// FNV-1a 64-bit over a byte string — the same hash the gateway uses for
// wire digests, reused here as the per-record checksum.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

// --- record framing --------------------------------------------------------

inline constexpr std::uint32_t kJournalFormatVersion = 8;
inline constexpr char kJournalMagic[8] = {'C', 'N', 'N', 'J',
                                          'R', 'N', 'L', '\0'};

// First byte of every record payload.
enum class RecordType : std::uint8_t {
  kSubmit = 1,      // request accepted: tag, routed chip, model, input,
                    // scheduling options (written before the enqueue)
  kCheckpoint = 2,  // preemption checkpoint: tag + full RunCheckpoint
  kComplete = 3,    // terminal kOk
  kCancel = 4,      // terminal kCancelled / kFailed (reason byte)
  kReject = 5,      // admission refused the request at submit
};

struct JournalRecord {
  RecordType type = RecordType::kSubmit;
  std::string payload;  // type-specific bytes *after* the type byte
};

struct JournalReadResult {
  std::vector<JournalRecord> records;
  // A trailing record shorter than its length prefix promised (the
  // classic crash-mid-append) was dropped.
  bool truncated_tail = false;
  // Reading stopped at a record whose checksum did not match (1 at
  // most — nothing after a corrupt record can be trusted).
  std::int64_t checksum_errors = 0;
  // Bytes of the file that parsed clean (header + whole valid records).
  std::uint64_t valid_bytes = 0;
};

// Frames `payload` (type byte + body) into length/checksum/payload.
[[nodiscard]] std::string frame_record(std::string_view payload);

// Parses the body of a journal file after its header has been
// validated. Never throws on torn or corrupt data — that is the normal
// crash case — only on programmer error.
[[nodiscard]] JournalReadResult read_records(std::string_view body);

// Reads a whole journal file: validates header (JournalError on missing
// file, short header, bad magic or version mismatch), then parses
// records. A file holding only a valid header yields an empty record
// list — an empty journal is a journal, not an error.
[[nodiscard]] JournalReadResult read_journal_file(const std::string& path);

// --- the append-only writer ------------------------------------------------

struct JournalOptions {
  std::string path;
  // fsync after every Nth appended record; 0 disables fsync entirely
  // (the OS still flushes on close — fine for tests and benches that
  // only care about the bytes, wrong for real crash durability).
  std::int64_t fsync_every_records = 1;
};

struct JournalStats {
  std::int64_t records_appended = 0;
  std::int64_t bytes_appended = 0;  // framed bytes, excluding the header
  std::int64_t fsyncs = 0;
};

class Journal {
 public:
  // Creates/truncates the file and writes a fresh header. Throws
  // JournalError when the file cannot be opened.
  explicit Journal(JournalOptions options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Appends one framed record ([0] of `payload` must be the RecordType
  // byte). One write() per record; fsync per JournalOptions. Throws
  // JournalError when the write or a due fsync fails (the record counts
  // as appended once its write succeeded).
  void append(std::string_view payload);
  // Forces an fsync now (e.g. before handing the path to a recovery).
  // Throws JournalError when it fails.
  void sync();

  [[nodiscard]] JournalStats stats() const;
  [[nodiscard]] const std::string& path() const { return opts_.path; }

 private:
  // fsync, or throw JournalError; only a successful one is counted.
  void fsync_locked() CHAINNN_REQUIRES(mu_);

  JournalOptions opts_;
  mutable Mutex mu_;
  int fd_ CHAINNN_GUARDED_BY(mu_) = -1;
  std::int64_t since_fsync_ CHAINNN_GUARDED_BY(mu_) = 0;
  JournalStats stats_ CHAINNN_GUARDED_BY(mu_);
};

}  // namespace chainnn::serve
