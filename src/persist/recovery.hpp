// Crash recovery: checkpoint load + journal replay.
//
// recover_dispatcher() stitches the other persist pieces into the startup
// sequence a durable dispatcher runs before accepting traffic:
//
//   1. scan_journal(): read every valid frame; detect the torn tail a
//      crash mid-commit leaves behind.
//   2. truncate_torn_tail(): cut the invalid bytes so the reopened writer
//      appends after the last valid frame (never buries garbage).
//   3. load_newest_checkpoint(): restore dispatcher + policy state from
//      the newest valid checkpoint, if any (falling back past corrupt
//      ones).
//   4. Replay journal frames with seq > checkpoint seq through the REAL
//      dispatcher/policy code -- not a parallel reimplementation -- so the
//      recovered packing is bit-identical to the pre-crash one (pinned by
//      tests/test_persist_recovery.cpp).
//
// A frame names its job by the job's one id, so apply_record() is the one
// journal replayer, for the serial engine and every shard of the sharded
// service alike.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/serial.hpp"
#include "persist/checkpoint.hpp"
#include "persist/journal.hpp"

namespace dvbp {
class Dispatcher;  // core/dispatcher.hpp
class Policy;      // core/policies/policy.hpp
}  // namespace dvbp

namespace dvbp::persist {

struct RecoveryReport {
  bool had_checkpoint = false;
  std::uint64_t checkpoint_seq = 0;  ///< 0 when !had_checkpoint
  std::uint64_t replayed_ops = 0;    ///< frames applied after the checkpoint
  /// Highest sequence number folded into the recovered state (checkpoint
  /// or replay); 0 for a cold start on an empty directory.
  std::uint64_t last_seq = 0;
  /// Sequence number the reopened JournalWriter must continue from.
  std::uint64_t next_seq = 1;
  bool torn_tail = false;  ///< a partial/corrupt tail was found + truncated
  std::uint64_t tail_bytes_discarded = 0;
  /// Blob of the LAST kTenantCredits frame replayed (empty when none):
  /// the newest durably settled arbiter state. The caller feeds it to
  /// tenancy::Arbiter::restore_state; settlements after this frame were
  /// lost with the crash, exactly like any uncommitted op.
  std::vector<std::uint8_t> tenant_credits;
};

/// Recovers from `dir`: restores `dispatcher` (freshly constructed) and
/// `policy` (matched by Policy::name(); PersistError on mismatch), hands
/// the checkpoint's `extra` blob to `restore_extra` (which must read it to
/// the end), then applies every later frame with apply_record(), showing
/// it first to `on_record` when set. A frame that does not apply throws
/// PersistError. Missing directory == cold start: a default report,
/// next_seq == 1. `metrics` (borrowed, nullable) receives
/// dvbp.persist.recovery_ms, dvbp.persist.replayed_ops_total and
/// dvbp.persist.torn_tail_bytes_total.
RecoveryReport recover_dispatcher(
    const std::string& dir, obs::MetricRegistry* metrics,
    Dispatcher& dispatcher, Policy& policy,
    const std::function<void(serial::Reader&)>& restore_extra,
    const std::function<void(const JournalRecord&)>& on_record = {});

/// The one journal replayer: applies `rec` to `dispatcher` under the job
/// id it names (clock notes and credit frames change nothing). Throws what
/// the dispatcher throws, or PersistError for a replace that lands amiss.
void apply_record(Dispatcher& dispatcher, const JournalRecord& rec);

}  // namespace dvbp::persist
