// DurableDispatcher: the Dispatcher bound to its write-ahead journal --
// apply, append, commit, checkpoint and crash recovery in one place. It is
// the serial durable engine, and each shard of the sharded service runs
// one (cloud/sharded_dispatcher.hpp).
//
// Construction recovers, before any traffic:
//   1. scan_journal() reads every valid frame and finds the torn tail a
//      crash mid-commit leaves behind; truncate_torn_tail() cuts it, so
//      the reopened writer never buries garbage (reported, never fatal).
//   2. The newest valid checkpoint, if any, restores the dispatcher, the
//      policy and the `extra` history (falling back past corrupt files).
//   3. Every frame after the checkpoint replays through the REAL
//      dispatcher/policy code -- not a parallel reimplementation -- so the
//      engine starts exactly where the previous incarnation (crashed or
//      not) left off, bit for bit (tests/test_persist_recovery.cpp).
// A frame names its job by the job's one id, so one replayer serves the
// serial engine and every shard. An empty `options.dir` journals nothing:
// no recovery, no journal file, no dvbp.persist.* instrument -- a
// Dispatcher with its recorder and listener.
//
// Ordering: each op is applied in memory first, then journaled and
// committed -- an op is acknowledged (the call returns) only after its
// frame is down the write(2) path under the configured fsync policy. An
// op that the dispatcher rejects (time regression, bad size) therefore
// never reaches the journal, and replay can never hit an invalid op. A
// crash between apply and commit loses exactly the unacknowledged tail,
// which is the torn-tail contract recovery already handles.
//
// Group commit: between begin_batch() and end_batch() the journaling calls
// only append; end_batch() commits the whole batch with one write(2) and
// checks the checkpoint cadence once. Outside a batch every call commits
// its own op. A shard worker wraps each drained batch; the serial engine
// commits per op.
//
// Failure is sticky: after any journal or checkpoint failure the engine
// journals nothing more. The failing call throws, and so does every later
// journaling call, after it has applied its op in memory: memory may now
// run ahead of the journal, so the engine must be abandoned and recovered.
//
// History: the checkpoint's `extra` blob holds the PackingRecorder
// (packing()) and then the state of the usage hook, the Dispatcher's one
// listener -- so a reopened engine reports the same packing, the same
// tenant ledger and, for a shard, the same departed jobs.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/rebalancer.hpp"
#include "persist/journal.hpp"

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

struct DurableOptions {
  /// Journal + checkpoint directory (one owner per directory); empty
  /// journals nothing.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  std::size_t fsync_interval_ops = 256;
  /// Write a checkpoint every this many journaled ops; 0 disables
  /// automatic checkpoints (checkpoint() can still be called manually).
  std::size_t checkpoint_every = 0;
  /// Borrowed, nullable; receives the dvbp.persist.* metric families.
  obs::MetricRegistry* metrics = nullptr;
  /// Borrowed, nullable; forwarded to the inner Dispatcher. Replayed ops
  /// fire observer callbacks again (a recovery is a re-run of history).
  obs::Observer* observer = nullptr;
  /// Borrowed, nullable: the inner Dispatcher's listener, installed BEFORE
  /// replay so a recovery re-accrues per-tenant usage exactly as the
  /// original run did (tenancy::UsageAccountant is the intended hook).
  /// Every checkpoint carries its state; a reopen restores it, and one
  /// without a hook leaves that state unread.
  TenantUsageHook* usage_hook = nullptr;
};

class DurableDispatcher {
 public:
  /// Recovers from `options.dir` (creating it when missing) and opens the
  /// journal for append. `policy` is borrowed and reset() -- its
  /// checkpointed state, if any, is restored into it. Throws PersistError
  /// when the directory's checkpoint belongs to a different policy.
  DurableDispatcher(std::size_t dim, Policy& policy, DurableOptions options,
                    double bin_capacity = 1.0);

  /// Journaled Dispatcher::arrive, naming the job jobs_admitted(). Returns
  /// after the frame is committed. A non-kNoTenant label rides in the
  /// journal frame, so recovery rebuilds the same per-tenant attribution.
  Dispatcher::Admission arrive(Time now, RVec size,
                               Time expected_departure =
                                   std::numeric_limits<Time>::infinity(),
                               TenantId tenant = kNoTenant);

  /// Journaled Dispatcher::arrive under item.id (the harness admits each
  /// job under its ItemId, a shard under its service-global JobId).
  Dispatcher::Admission arrive(Time now, const Item& item);

  /// Journaled Dispatcher::depart.
  void depart(Time now, JobId job);

  /// Journals a clock advance with no placement mutation, so the journal
  /// records observed time even across idle stretches.
  void advance(Time now);

  /// Journaled Dispatcher::evict (migration; see core/rebalancer.hpp).
  Dispatcher::Eviction evict(Time now, JobId job);

  /// Journaled Dispatcher::replace. The journal frame records the bin the
  /// job actually landed in, so replay re-places deterministically even
  /// if a recovering engine would plan differently.
  BinId replace(Time now, JobId job, BinId target = kNoBin);

  /// Exec bindings for a Rebalancer driving this durable engine: every
  /// migration step goes through the journaling calls above.
  MigrationExec migration_exec();

  /// Journals one kTenantCredits frame carrying `credit_state` (opaque,
  /// tenancy::Arbiter::state_bytes) and commits it: the settlement is
  /// durable when this returns. Recovery surfaces the newest such frame
  /// via recovery().tenant_credits.
  void settle_credits(Time now, const std::vector<std::uint8_t>& credit_state);

  /// Group commit (see the header comment): the journaling calls up to
  /// end_batch() only append, and end_batch() commits them at once.
  void begin_batch() noexcept { batching_ = true; }
  void end_batch();

  /// Forces a checkpoint at the current sequence number: fsyncs the
  /// journal, durably writes the checkpoint file (replacing one at the
  /// same sequence number), then rotates the journal (old segments
  /// deleted). No-op without a journal.
  void checkpoint();

  /// Commits and fsyncs any buffered frames regardless of fsync policy.
  void flush();

  /// How the constructor recovered (cold start: had_checkpoint == false,
  /// replayed_ops == 0).
  const RecoveryReport& recovery() const noexcept { return recovery_; }

  /// The live dispatcher. Read-only: mutations must flow through the
  /// journaling calls above or they will not survive a crash.
  const Dispatcher& dispatcher() const noexcept { return dispatcher_; }

  /// The whole run's history, across every recovery.
  const PackingRecorder& recorder() const noexcept { return recorder_; }
  Packing packing() const { return recorder_.packing(); }

  std::uint64_t next_seq() const noexcept {
    return writer_ ? writer_->next_seq() : recovery_.next_seq;
  }

 private:
  void recover();
  /// Runs one step on the journal; after a failure, throws instead.
  template <typename Step>
  void guarded(Step&& step);
  /// Appends one applied op's frame, then commits unless batching.
  template <typename Append>
  void journal(Append&& append);

  Policy& policy_;
  DurableOptions options_;
  PackingRecorder recorder_;
  Dispatcher dispatcher_;
  RecoveryReport recovery_;
  std::unique_ptr<JournalWriter> writer_;  // null: journals nothing
  std::uint64_t ops_since_checkpoint_ = 0;
  bool batching_ = false;
  bool dead_ = false;  // sticky after any journal or checkpoint failure
  obs::Counter* checkpoints_total_ = nullptr;
};

}  // namespace dvbp::persist
