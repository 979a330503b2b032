// Write-ahead journal for the placement service (docs/DURABILITY.md).
//
// Every mutation the dispatcher applies (arrive, depart, evict, replace) is
// first encoded as one CRC32-framed, length-prefixed binary frame and
// appended to a journal segment; recovery replays the frames through the
// real policy code to rebuild the exact pre-crash packing. Frames carry
// per-journal sequence numbers, so replay after a checkpoint skips the
// prefix the checkpoint already covers.
//
// Frame layout (little-endian):
//   u32 payload_len | u32 crc32(payload) | payload
// Payload:
//   u64 seq | u8 kind | f64 time | u64 job
//   kind == kArrive: f64 expected_departure | u32 dim | dim x f64 size
//                    [ u32 tenant ]   (trailing, only when a tenant label
//                                      was given -- old frames stop at the
//                                      size vector and still parse)
//   kind == kReplace: u32 bin | u8 new_bin
//   kind == kTenantCredits: u32 blob_len | blob_len bytes (opaque credit
//                           state, tenancy::Arbiter::state_bytes)
//
// Torn-write semantics: a frame is either wholly valid (length sane, CRC
// matches) or it -- and everything after it -- is discarded at recovery.
// The writer never reuses a file region, so the only invalid bytes a crash
// can leave are a contiguous tail.
//
// Group commit: append() only buffers; commit() writes the whole batch
// with one write(2) and applies the fsync policy. persist::DurableDispatcher
// decides what a batch is: one op for the serial engine, one drained batch
// for a shard worker (begin_batch/end_batch) -- one syscall (and at most
// one fsync) per batch, not per op.
//
// Segments: the active file is journal-<first_seq>.wal (16 hex digits).
// A checkpoint at sequence S rotates to journal-<S+1>.wal and deletes the
// older segments, whose frames the checkpoint supersedes. Recovery reads
// the surviving segments in sequence order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rvec.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"

namespace dvbp::persist {

/// Thrown on journal/checkpoint I/O failures and unrecoverable format
/// errors (a torn *tail* is not an error -- see JournalScan).
class PersistError : public std::runtime_error {
 public:
  explicit PersistError(const std::string& what)
      : std::runtime_error(what) {}
};

/// When the journal file is fsync'd relative to commits.
enum class FsyncPolicy : std::uint8_t {
  kAlways,    ///< fsync on every commit: durable to the last applied op
  kInterval,  ///< fsync every `fsync_interval_ops` journaled ops
  kNone,      ///< never fsync: durable only through the page cache
};

/// Parses "always" | "interval" | "none" (the harness CLI spelling).
/// Throws std::invalid_argument for anything else.
FsyncPolicy parse_fsync_policy(std::string_view name);
std::string_view fsync_policy_name(FsyncPolicy policy) noexcept;

enum class OpKind : std::uint8_t {
  kArrive = 1,
  kDepart = 2,
  kAdvance = 3,  ///< clock note, no placement mutation; no engine writes it
  kEvict = 4,    ///< migration: job removed from its bin, left in limbo
  kReplace = 5,  ///< migration: evicted job re-placed (records the bin)
  /// Crash-safe tenant-credit settlement: the full arbiter state as an
  /// opaque blob. Replay restores the last such frame instead of
  /// re-deriving settlements (the usage integrals between frames are
  /// rebuilt by replaying the surrounding arrive/depart ops).
  kTenantCredits = 6,
};

/// One journaled operation. `time` and `expected_departure` are the exact
/// arguments the dispatcher was (or will be, on replay) called with --
/// any front-end clamping happens before journaling, so replay passes the
/// values verbatim and reproduces the run bit-exactly.
struct JournalRecord {
  std::uint64_t seq = 0;
  OpKind kind = OpKind::kArrive;
  Time time = 0.0;
  std::uint64_t job = 0;  ///< service job id (kArrive/kDepart/kEvict/kReplace)
  Time expected_departure = 0.0;  ///< kArrive only
  RVec size;                      ///< kArrive only
  TenantId tenant = kNoTenant;    ///< kArrive only: tenant label (optional
                                  ///< trailing field; kNoTenant if absent)
  BinId bin = kNoBin;     ///< kReplace only: bin the job landed in
  bool new_bin = false;   ///< kReplace only: that bin was freshly opened
  std::vector<std::uint8_t> blob;  ///< kTenantCredits only: arbiter state
};

/// Encodes `rec` as one frame (header + payload) appended to `out`.
void encode_frame(const JournalRecord& rec, std::vector<std::uint8_t>& out);

/// Result of scanning a journal directory.
struct JournalScan {
  std::vector<JournalRecord> records;  ///< valid frames, sequence order
  bool torn_tail = false;        ///< invalid/partial bytes followed the
                                 ///< last valid frame
  std::uint64_t tail_bytes_discarded = 0;  ///< size of that invalid tail
  std::string tail_segment;      ///< segment holding the invalid tail
  std::uint64_t tail_valid_bytes = 0;  ///< valid prefix of that segment
};

/// Reads every journal segment under `dir` (created by JournalWriter),
/// stopping cleanly at the first invalid frame: a short header, an
/// implausible length, a CRC mismatch, or a malformed payload all mark the
/// torn tail. Frames after the tear -- even if they would parse -- are
/// never returned (standard WAL torn-tail semantics). Throws PersistError
/// only for I/O errors.
JournalScan scan_journal(const std::string& dir);

/// Truncates the torn tail `scan` found, so a writer can append to the
/// segment again without burying garbage between valid frames. No-op when
/// the scan found no tear.
void truncate_torn_tail(const JournalScan& scan);

struct JournalOptions {
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  /// kInterval: at most this many journaled ops between fsyncs; must be
  /// >= 1 (JournalWriter throws std::invalid_argument on 0). The fsync
  /// itself runs on a background flusher thread (group commit), so the
  /// committing thread never blocks on the device flush; the loss window
  /// stays bounded by this count plus one in-flight flush.
  std::size_t fsync_interval_ops = 256;
  /// Borrowed, nullable; feeds dvbp.persist.journal_bytes_total,
  /// dvbp.persist.journal_commits_total, dvbp.persist.fsyncs_total.
  obs::MetricRegistry* metrics = nullptr;
};

/// Appender over the active segment of a journal directory. The public
/// API is not thread-safe: each owner (a DurableDispatcher: the serial
/// engine, or one shard's) has its own journal directory and writer. Under
/// FsyncPolicy::kInterval the writer runs a private background flusher
/// thread that fsyncs every `fsync_interval_ops` committed ops, so
/// commit() returns after write(2) and the device flush overlaps with the
/// owner's placement work; a flusher failure poisons the writer at the
/// next public call.
class JournalWriter {
 public:
  /// Opens the newest existing segment for append (call after
  /// scan_journal + truncate_torn_tail), or starts journal-<next_seq>.wal
  /// in a fresh/emptied directory. Creates `dir` if missing. Throws
  /// std::invalid_argument, touching nothing, for next_seq 0 or a zero
  /// fsync interval under FsyncPolicy::kInterval.
  JournalWriter(std::string dir, std::uint64_t next_seq,
                JournalOptions options);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Buffers one record (assigning it the next sequence number) for the
  /// next commit(). Returns the assigned sequence number.
  std::uint64_t append(OpKind kind, Time time, std::uint64_t job,
                       Time expected_departure = 0.0,
                       const RVec* size = nullptr, BinId bin = kNoBin,
                       bool new_bin = false,
                       TenantId tenant = kNoTenant);

  /// Buffers one kTenantCredits frame carrying `blob` (opaque arbiter
  /// state) for the next commit(). Returns the assigned sequence number.
  std::uint64_t append_credits(Time time,
                               const std::vector<std::uint8_t>& blob);

  /// Writes every buffered frame with one write(2) (two while a fault hook
  /// is installed, for journal.commit.torn), then fsyncs per the policy.
  /// Throws PersistError on I/O failure -- after which the writer is
  /// poisoned (every later append/commit throws) so a torn tail is never
  /// buried under newer frames.
  void commit();

  /// Starts segment journal-<next_seq()>.wal and deletes the superseded
  /// older segments. Called by the checkpoint path after the checkpoint
  /// file is durably in place; fault points cover the gap.
  void rotate();

  /// Sequence number the next append() will be assigned.
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  std::uint64_t pending_ops() const noexcept { return pending_ops_; }

  /// Forces an fsync regardless of policy (used before a checkpoint so the
  /// checkpoint never claims ops the journal might still lose).
  void sync();

 private:
  void open_segment(bool create_new);
  void flusher_main();
  /// With flush_mu_ held: waits out any in-flight background fsync and
  /// rethrows a flusher failure as a poisoning PersistError.
  void await_flusher(std::unique_lock<std::mutex>& lock);

  std::string dir_;
  std::uint64_t next_seq_;
  JournalOptions options_;
  int fd_ = -1;
  std::uint64_t segment_first_seq_ = 0;
  /// The open segment's file, named in error messages; built when the
  /// segment is opened, not on every commit.
  std::string segment_path_;
  std::vector<std::uint8_t> pending_;
  std::size_t pending_ops_ = 0;
  bool poisoned_ = false;

  // Background group-commit flusher (kInterval only; see class comment).
  std::thread flusher_;
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::size_t unsynced_ops_ = 0;
  bool flush_in_flight_ = false;
  bool flusher_stop_ = false;
  bool flush_failed_ = false;
  std::string flush_error_;

  obs::Counter* bytes_total_ = nullptr;
  obs::Counter* commits_total_ = nullptr;
  obs::Counter* fsyncs_total_ = nullptr;
};

/// The journal segment files under `dir`, sequence order (for tests and
/// the checkpoint GC).
std::vector<std::string> journal_segments(const std::string& dir);

}  // namespace dvbp::persist
