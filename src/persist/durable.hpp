// DurableDispatcher: the serial Dispatcher wrapped with write-ahead
// journaling, periodic checkpointing, and automatic crash recovery.
//
// Construction recovers: the newest valid checkpoint under `options.dir`
// is restored into the fresh dispatcher/policy pair and the journal tail
// is replayed through the real policy code, so the object starts exactly
// where the previous incarnation (crashed or not) left off. A torn journal
// tail is truncated and reported, never fatal.
//
// Ordering: each op is applied in memory first, then journaled and
// committed -- an op is acknowledged (the call returns) only after its
// frame is down the write(2) path under the configured fsync policy. An
// op that the dispatcher rejects (time regression, bad size) therefore
// never reaches the journal, and replay can never hit an invalid op. A
// crash between apply and commit loses exactly the unacknowledged tail,
// which is the torn-tail contract recovery already handles.
//
// Its history lives in a PackingRecorder (packing()) that every
// checkpoint carries, so a reopened engine reports the same packing.
//
// This type is the serial (single-owner) binding; the sharded service
// wires the same journal/checkpoint/recovery pieces per shard (see
// cloud/sharded_dispatcher.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/rebalancer.hpp"
#include "persist/journal.hpp"
#include "persist/recovery.hpp"

namespace dvbp::persist {

struct DurableOptions {
  /// Journal + checkpoint directory (one owner per directory).
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
  /// Borrowed, nullable; installed on the inner Dispatcher BEFORE replay,
  /// so a recovery re-accrues per-tenant usage exactly as the original run
  /// did (tenancy::UsageAccountant is the intended hook).
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
  /// job under its ItemId).
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

  /// Forces a checkpoint at the current sequence number: fsyncs the
  /// journal, durably writes the checkpoint file, then rotates the journal
  /// (old segments deleted). No-op when nothing was journaled since the
  /// last checkpoint.
  void checkpoint();

  /// Commits and fsyncs any buffered frames regardless of fsync policy.
  void flush() { writer_->sync(); }

  /// How the constructor recovered (cold start: had_checkpoint == false,
  /// replayed_ops == 0).
  const RecoveryReport& recovery() const noexcept { return recovery_; }

  /// The live dispatcher. Read-only: mutations must flow through the
  /// journaling calls above or they will not survive a crash.
  const Dispatcher& dispatcher() const noexcept { return dispatcher_; }

  /// The whole run's history, across every recovery.
  const PackingRecorder& recorder() const noexcept { return recorder_; }
  Packing packing() const { return recorder_.packing(); }

  std::uint64_t next_seq() const noexcept { return writer_->next_seq(); }

 private:
  void maybe_checkpoint();
  void committed();

  Policy& policy_;
  DurableOptions options_;
  PackingRecorder recorder_;
  Dispatcher dispatcher_;
  RecoveryReport recovery_;
  std::unique_ptr<JournalWriter> writer_;
  std::uint64_t ops_since_checkpoint_ = 0;
  obs::Counter* checkpoints_total_ = nullptr;
};

}  // namespace dvbp::persist
