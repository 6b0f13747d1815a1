#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/check.hpp"

namespace chainnn::serve {

namespace {

// errno through std::error_code::message() rather than std::strerror,
// which writes a shared static buffer (concurrency-mt-unsafe).
std::string errno_message() {
  return std::error_code(errno, std::generic_category()).message();
}

}  // namespace

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::i16_span(std::span<const std::int16_t> v) {
  u64(v.size());
  for (const std::int16_t x : v) {
    const auto u = static_cast<std::uint16_t>(x);
    buf_.push_back(static_cast<char>(u & 0xFF));
    buf_.push_back(static_cast<char>((u >> 8) & 0xFF));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::vector<std::int16_t> ByteReader::i16_vec() {
  const std::uint64_t n = u64();
  need(2 * n);
  std::vector<std::int16_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto lo =
        static_cast<std::uint16_t>(static_cast<std::uint8_t>(bytes_[pos_]));
    const auto hi = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(bytes_[pos_ + 1]));
    v.push_back(static_cast<std::int16_t>(
        static_cast<std::uint16_t>(lo | (hi << 8))));
    pos_ += 2;
  }
  return v;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string frame_record(std::string_view payload) {
  CHAINNN_CHECK_MSG(!payload.empty(), "record payload must carry a type byte");
  CHAINNN_CHECK_MSG(payload.size() <= 0xFFFFFFFFull,
                    "record payload too large: " << payload.size());
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(fnv1a64(payload));
  std::string framed = w.take();
  framed.append(payload);
  return framed;
}

JournalReadResult read_records(std::string_view body) {
  JournalReadResult out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    // A record needs at least its 12-byte prefix plus 1 payload byte.
    if (body.size() - pos < 12) {
      out.truncated_tail = true;
      break;
    }
    ByteReader prefix(body.substr(pos, 12));
    const std::uint32_t len = prefix.u32();
    const std::uint64_t checksum = prefix.u64();
    if (len == 0 || body.size() - pos - 12 < len) {
      // A zero length can only come from a torn prefix (frame_record
      // refuses empty payloads), and a short payload is the tear itself.
      out.truncated_tail = true;
      break;
    }
    const std::string_view payload = body.substr(pos + 12, len);
    if (fnv1a64(payload) != checksum) {
      // Bit rot (or an overwritten region): unlike a torn tail this is
      // not a clean crash artifact, so it is *counted*, and nothing
      // after it is trusted.
      ++out.checksum_errors;
      break;
    }
    JournalRecord rec;
    rec.type = static_cast<RecordType>(static_cast<std::uint8_t>(payload[0]));
    rec.payload.assign(payload.substr(1));
    out.records.push_back(std::move(rec));
    pos += 12 + len;
    out.valid_bytes = pos;
  }
  return out;
}

JournalReadResult read_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw JournalError("cannot open journal file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  const std::size_t header = 8 + 4;
  if (bytes.size() < header)
    throw JournalError("journal file too short for its header: " + path);
  if (std::memcmp(bytes.data(), kJournalMagic, 8) != 0)
    throw JournalError("journal file has wrong magic: " + path);
  ByteReader version_reader(std::string_view(bytes).substr(8, 4));
  const std::uint32_t version = version_reader.u32();
  if (version != kJournalFormatVersion)
    throw JournalError("journal format version " + std::to_string(version) +
                       " != supported " +
                       std::to_string(kJournalFormatVersion) + ": " + path);

  JournalReadResult out =
      read_records(std::string_view(bytes).substr(header));
  out.valid_bytes += header;
  return out;
}

Journal::Journal(JournalOptions options) : opts_(std::move(options)) {
  CHAINNN_CHECK_MSG(!opts_.path.empty(), "journal needs a path");
  const int fd = ::open(opts_.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0)
    throw JournalError("cannot open journal for writing: " + opts_.path +
                       " (" + errno_message() + ")");
  ByteWriter header;
  for (const char c : kJournalMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kJournalFormatVersion);
  const std::string& bytes = header.bytes();
  if (::write(fd, bytes.data(), bytes.size()) !=
      static_cast<ssize_t>(bytes.size())) {
    ::close(fd);
    throw JournalError("cannot write journal header: " + opts_.path);
  }
  MutexLock lock(mu_);
  fd_ = fd;
}

Journal::~Journal() {
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Journal::append(std::string_view payload) {
  const std::string framed = frame_record(payload);
  MutexLock lock(mu_);
  CHAINNN_CHECK_MSG(fd_ >= 0, "journal already closed");
  // One write() per record: concurrent appends are serialized by mu_,
  // and a crash mid-write leaves at most one torn record at the tail —
  // exactly what read_records truncates.
  if (::write(fd_, framed.data(), framed.size()) !=
      static_cast<ssize_t>(framed.size()))
    throw JournalError("journal append failed: " + opts_.path + " (" +
                       errno_message() + ")");
  ++stats_.records_appended;
  stats_.bytes_appended += static_cast<std::int64_t>(framed.size());
  if (opts_.fsync_every_records > 0 &&
      ++since_fsync_ >= opts_.fsync_every_records)
    fsync_locked();
}

void Journal::sync() {
  MutexLock lock(mu_);
  if (fd_ < 0) return;
  fsync_locked();
}

void Journal::fsync_locked() {
  // A failed fsync means write-back may have lost records already
  // acknowledged: surface it like a failed write(), and count only
  // fsyncs that succeeded.
  if (::fsync(fd_) != 0)
    throw JournalError("journal fsync failed: " + opts_.path + " (" +
                       errno_message() + ")");
  since_fsync_ = 0;
  ++stats_.fsyncs;
}

JournalStats Journal::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace chainnn::serve
