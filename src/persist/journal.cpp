#include "persist/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/serial.hpp"
#include "persist/fault.hpp"

namespace dvbp::persist {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc
/// A frame is one op: header fields + one RVec. Anything claiming more
/// than this is corruption, not a record.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

std::string segment_name(std::uint64_t first_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "journal-%016llx.wal",
                static_cast<unsigned long long>(first_seq));
  return buf;
}

/// first_seq from a segment filename, or nullopt for non-segment files.
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  constexpr std::string_view prefix = "journal-";
  constexpr std::string_view suffix = ".wal";
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
      0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
    const char c = name[i];
    seq <<= 4;
    if (c >= '0' && c <= '9') {
      seq |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      seq |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return seq;
}

std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto seq = parse_segment_name(entry.path().filename().string());
    if (seq) out.emplace_back(*seq, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw PersistError("journal: write to '" + path +
                         "' failed: " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Parses one frame at `pos`. Returns false (without touching `rec`) when
/// the bytes at `pos` are not a wholly valid frame -- the torn-tail case.
bool parse_frame(const std::vector<std::uint8_t>& bytes, std::size_t pos,
                 std::uint64_t expected_seq, JournalRecord& rec,
                 std::size_t& frame_len) {
  if (bytes.size() - pos < kFrameHeaderBytes) return false;
  serial::Reader header(bytes.data() + pos, kFrameHeaderBytes);
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  if (len > kMaxPayloadBytes) return false;
  if (bytes.size() - pos - kFrameHeaderBytes < len) return false;
  const std::uint8_t* payload = bytes.data() + pos + kFrameHeaderBytes;
  if (serial::crc32(payload, len) != crc) return false;
  try {
    serial::Reader in(payload, len);
    rec.seq = in.u64();
    const std::uint8_t kind = in.u8();
    if (kind < 1 || kind > 6) return false;
    rec.kind = static_cast<OpKind>(kind);
    rec.time = in.f64();
    rec.job = in.u64();
    rec.expected_departure = 0.0;
    rec.size = RVec();
    rec.tenant = kNoTenant;
    rec.bin = kNoBin;
    rec.new_bin = false;
    rec.blob.clear();
    if (rec.kind == OpKind::kArrive) {
      rec.expected_departure = in.f64();
      const std::uint32_t dim = in.u32();
      if (dim == 0 || dim > 1024) return false;
      RVec size(dim);
      for (std::uint32_t j = 0; j < dim; ++j) size[j] = in.f64();
      rec.size = std::move(size);
      // Optional trailing tenant label: frames written before the tenancy
      // layer (or for unlabeled jobs) simply end here.
      if (!in.done()) rec.tenant = in.u32();
    } else if (rec.kind == OpKind::kReplace) {
      rec.bin = in.u32();
      rec.new_bin = in.u8() != 0;
    } else if (rec.kind == OpKind::kTenantCredits) {
      rec.blob = in.blob();
    }
    if (!in.done()) return false;
  } catch (const serial::SerialError&) {
    return false;
  }
  // Sequence discontinuity: a stale or misnamed segment, treated like
  // corruption so replay never applies ops out of order.
  if (rec.seq != expected_seq) return false;
  frame_len = kFrameHeaderBytes + len;
  return true;
}

}  // namespace

FsyncPolicy parse_fsync_policy(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "none") return FsyncPolicy::kNone;
  throw std::invalid_argument("parse_fsync_policy: unknown policy '" +
                              std::string(name) +
                              "' (expected always | interval | none)");
}

std::string_view fsync_policy_name(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kNone: return "none";
  }
  return "unknown";
}

void encode_frame(const JournalRecord& rec, std::vector<std::uint8_t>& out) {
  serial::Writer payload;
  payload.u64(rec.seq);
  payload.u8(static_cast<std::uint8_t>(rec.kind));
  payload.f64(rec.time);
  payload.u64(rec.job);
  if (rec.kind == OpKind::kArrive) {
    payload.f64(rec.expected_departure);
    payload.u32(static_cast<std::uint32_t>(rec.size.dim()));
    for (double c : rec.size) payload.f64(c);
    // Trailing tenant label only when one was given: unlabeled frames stay
    // byte-identical to the pre-tenancy format.
    if (rec.tenant != kNoTenant) payload.u32(rec.tenant);
  } else if (rec.kind == OpKind::kReplace) {
    payload.u32(rec.bin);
    payload.u8(rec.new_bin ? 1 : 0);
  } else if (rec.kind == OpKind::kTenantCredits) {
    payload.blob(rec.blob);
  }
  serial::append_frame(payload.bytes(), out);
}

JournalScan scan_journal(const std::string& dir) {
  JournalScan scan;
  std::uint64_t expected_seq = 0;  // 0: accept the first segment's start
  for (const auto& [first_seq, path] : list_segments(dir)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw PersistError("journal: cannot open '" + path + "'");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad()) throw PersistError("journal: read of '" + path +
                                     "' failed");
    if (expected_seq == 0) expected_seq = first_seq;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      JournalRecord rec;
      std::size_t frame_len = 0;
      if (!parse_frame(bytes, pos, expected_seq, rec, frame_len)) {
        scan.torn_tail = true;
        scan.tail_bytes_discarded = bytes.size() - pos;
        scan.tail_segment = path;
        scan.tail_valid_bytes = pos;
        return scan;  // frames past a tear are never trusted
      }
      scan.records.push_back(std::move(rec));
      pos += frame_len;
      ++expected_seq;
    }
  }
  return scan;
}

void truncate_torn_tail(const JournalScan& scan) {
  if (!scan.torn_tail) return;
  if (::truncate(scan.tail_segment.c_str(),
                 static_cast<off_t>(scan.tail_valid_bytes)) != 0) {
    throw PersistError("journal: truncate of '" + scan.tail_segment +
                       "' failed: " + std::strerror(errno));
  }
}

std::vector<std::string> journal_segments(const std::string& dir) {
  std::vector<std::string> out;
  for (auto& [seq, path] : list_segments(dir)) out.push_back(path);
  return out;
}

JournalWriter::JournalWriter(std::string dir, std::uint64_t next_seq,
                             JournalOptions options)
    : dir_(std::move(dir)), next_seq_(next_seq),
      options_(std::move(options)) {
  if (next_seq_ == 0) {
    throw std::invalid_argument("JournalWriter: sequence numbers are "
                                "1-based");
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw PersistError("journal: cannot create directory '" + dir_ +
                       "': " + ec.message());
  }
  if (options_.metrics != nullptr) {
    bytes_total_ =
        &options_.metrics->counter("dvbp.persist.journal_bytes_total");
    commits_total_ =
        &options_.metrics->counter("dvbp.persist.journal_commits_total");
    fsyncs_total_ = &options_.metrics->counter("dvbp.persist.fsyncs_total");
  }
  open_segment(/*create_new=*/list_segments(dir_).empty());
  if (options_.fsync == FsyncPolicy::kInterval) {
    flusher_ = std::thread([this] { flusher_main(); });
  }
}

JournalWriter::~JournalWriter() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flusher_stop_ = true;
    }
    flush_cv_.notify_all();
    flusher_.join();
  }
  // Buffered (uncommitted) frames are dropped deliberately: only commit()
  // makes ops durable, exactly like a crash would. Unflushed-but-written
  // frames are likewise left to the page cache -- the interval contract.
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::flusher_main() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    flush_cv_.wait(lock, [&] {
      return flusher_stop_ ||
             unsynced_ops_ >= options_.fsync_interval_ops;
    });
    if (flusher_stop_) return;
    const std::size_t batch = unsynced_ops_;
    const int fd = fd_;
    flush_in_flight_ = true;
    lock.unlock();
    // The device flush runs with the lock released: the owner keeps
    // committing (and placing jobs) while the flush is in flight. fsync
    // concurrent with write(2) on the same fd is safe; the flush simply
    // covers whatever had been written when it reached the device.
    const bool ok = ::fsync(fd) == 0;
    const int err = ok ? 0 : errno;
    lock.lock();
    flush_in_flight_ = false;
    if (!ok) {
      flush_failed_ = true;
      flush_error_ = "journal: background fsync failed: " +
                     std::string(std::strerror(err));
      flush_cv_.notify_all();
      return;
    }
    unsynced_ops_ -= batch;
    if (fsyncs_total_ != nullptr) fsyncs_total_->inc();
    flush_cv_.notify_all();
  }
}

void JournalWriter::await_flusher(std::unique_lock<std::mutex>& lock) {
  flush_cv_.wait(lock, [&] { return !flush_in_flight_; });
  if (flush_failed_) {
    poisoned_ = true;
    throw PersistError(flush_error_);
  }
}

void JournalWriter::open_segment(bool create_new) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (create_new) {
    segment_first_seq_ = next_seq_;
  } else {
    const auto segments = list_segments(dir_);
    segment_first_seq_ = segments.back().first;
  }
  segment_path_ = (fs::path(dir_) / segment_name(segment_first_seq_)).string();
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw PersistError("journal: cannot open '" + segment_path_ +
                       "': " + std::strerror(errno));
  }
}

void JournalWriter::poison(const std::string& why) {
  poisoned_ = true;
  throw PersistError(why);
}

std::uint64_t JournalWriter::append(OpKind kind, Time time,
                                    std::uint64_t job,
                                    Time expected_departure,
                                    const RVec* size, BinId bin,
                                    bool new_bin, TenantId tenant) {
  if (poisoned_) {
    throw PersistError("journal: writer poisoned by an earlier failure");
  }
  JournalRecord rec;
  rec.seq = next_seq_++;
  rec.kind = kind;
  rec.time = time;
  rec.job = job;
  if (kind == OpKind::kArrive) {
    if (size == nullptr) {
      throw std::invalid_argument("journal: arrive record requires a size");
    }
    rec.expected_departure = expected_departure;
    rec.size = *size;
    rec.tenant = tenant;
  } else if (kind == OpKind::kReplace) {
    rec.bin = bin;
    rec.new_bin = new_bin;
  }
  encode_frame(rec, pending_);
  ++pending_ops_;
  return rec.seq;
}

std::uint64_t JournalWriter::append_credits(
    Time time, const std::vector<std::uint8_t>& blob) {
  if (poisoned_) {
    throw PersistError("journal: writer poisoned by an earlier failure");
  }
  JournalRecord rec;
  rec.seq = next_seq_++;
  rec.kind = OpKind::kTenantCredits;
  rec.time = time;
  rec.blob = blob;
  encode_frame(rec, pending_);
  ++pending_ops_;
  return rec.seq;
}

void JournalWriter::commit() {
  if (poisoned_) {
    throw PersistError("journal: writer poisoned by an earlier failure");
  }
  if (pending_.empty()) return;
  // Poison-on-entry, un-poison on success: if anything below throws
  // (I/O failure or an injected fault), the writer refuses further work --
  // a torn tail must never be buried under newer frames.
  poisoned_ = true;
  fault_point("journal.commit.begin");
  // One write(2), or two while a fault hook is installed, so that the
  // journal.commit.torn fault point leaves a real partial frame on disk,
  // the way an interrupted write(2) would.
  const std::size_t first_chunk =
      fault_hook_installed() && pending_.size() > 16 ? pending_.size() / 2
                                                     : pending_.size();
  write_all(fd_, pending_.data(), first_chunk, segment_path_);
  fault_point("journal.commit.torn");
  if (first_chunk < pending_.size()) {
    write_all(fd_, pending_.data() + first_chunk,
              pending_.size() - first_chunk, segment_path_);
  }
  fault_point("journal.commit.written");
  if (bytes_total_ != nullptr) {
    bytes_total_->inc(pending_.size());
  }
  if (commits_total_ != nullptr) commits_total_->inc();
  if (options_.fsync == FsyncPolicy::kAlways) {
    if (::fsync(fd_) != 0) {
      throw PersistError("journal: fsync of '" + segment_path_ +
                         "' failed: " + std::strerror(errno));
    }
    if (fsyncs_total_ != nullptr) fsyncs_total_->inc();
  } else if (options_.fsync == FsyncPolicy::kInterval) {
    // Group commit: hand the flush to the background flusher and return.
    // A flusher failure surfaces (and poisons) here on the next commit.
    std::lock_guard<std::mutex> lock(flush_mu_);
    if (flush_failed_) throw PersistError(flush_error_);
    unsynced_ops_ += pending_ops_;
    if (unsynced_ops_ >= options_.fsync_interval_ops) {
      flush_cv_.notify_all();
    }
  }
  fault_point("journal.commit.synced");
  pending_.clear();
  pending_ops_ = 0;
  poisoned_ = false;
}

void JournalWriter::sync() {
  if (poisoned_) {
    throw PersistError("journal: writer poisoned by an earlier failure");
  }
  commit();
  if (options_.fsync == FsyncPolicy::kNone) return;
  poisoned_ = true;
  if (options_.fsync == FsyncPolicy::kInterval) {
    // Drain the background flusher, then flush inline so that on return
    // every committed frame is durable regardless of interval position.
    std::unique_lock<std::mutex> lock(flush_mu_);
    await_flusher(lock);
    if (::fsync(fd_) != 0) {
      throw PersistError("journal: fsync failed: " +
                         std::string(std::strerror(errno)));
    }
    unsynced_ops_ = 0;
    if (fsyncs_total_ != nullptr) fsyncs_total_->inc();
  } else {
    if (::fsync(fd_) != 0) {
      throw PersistError("journal: fsync failed: " +
                         std::string(std::strerror(errno)));
    }
    if (fsyncs_total_ != nullptr) fsyncs_total_->inc();
  }
  poisoned_ = false;
}

void JournalWriter::rotate() {
  if (poisoned_) {
    throw PersistError("journal: writer poisoned by an earlier failure");
  }
  if (!pending_.empty()) {
    throw std::logic_error("journal: rotate with uncommitted frames");
  }
  poisoned_ = true;
  const std::uint64_t old_first = segment_first_seq_;
  {
    // The flusher snapshots fd_ under this lock; never swap the segment
    // while a flush of the old fd is in flight.
    std::unique_lock<std::mutex> lock(flush_mu_);
    await_flusher(lock);
    unsynced_ops_ = 0;  // callers sync() before rotate(); be safe anyway
    open_segment(/*create_new=*/true);
  }
  // Older segments' frames are all <= the checkpoint sequence; delete
  // them. A crash between the two loops only leaves extra segments, which
  // replay skips by sequence number.
  for (const auto& [first_seq, path] : list_segments(dir_)) {
    if (first_seq <= old_first && first_seq != segment_first_seq_) {
      std::error_code ec;
      fs::remove(path, ec);  // best effort; stale segments are harmless
    }
  }
  poisoned_ = false;
}

}  // namespace dvbp::persist
