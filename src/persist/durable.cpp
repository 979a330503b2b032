#include "persist/durable.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "core/serial.hpp"
#include "persist/checkpoint.hpp"
#include "persist/fault.hpp"

namespace dvbp::persist {

namespace {

/// The one journal replayer: applies `rec` to `dispatcher` under the job
/// id it names (clock notes and credit frames change nothing). Throws what
/// the dispatcher throws, or PersistError for a replace that lands amiss.
void apply_record(Dispatcher& dispatcher, const JournalRecord& rec) {
  const auto job = static_cast<JobId>(rec.job);
  switch (rec.kind) {
    case OpKind::kArrive:
      // The journaled time/expected departure are the values the engine
      // applied (post-clamp), so replay passes them verbatim.
      dispatcher.arrive(rec.time, Item(job, rec.time, rec.expected_departure,
                                       rec.size, rec.tenant));
      break;
    case OpKind::kDepart:
      dispatcher.depart(rec.time, job);
      break;
    case OpKind::kEvict:
      dispatcher.evict(rec.time, job);
      break;
    case OpKind::kReplace: {
      // The frame records the bin the job actually landed in, so replay
      // is deterministic independent of any planner.
      const BinId bin =
          dispatcher.replace(rec.time, job, rec.new_bin ? kNoBin : rec.bin);
      if (bin != rec.bin) {
        throw PersistError("recovery: replayed replace landed in bin " +
                           std::to_string(bin) + ", journal says " +
                           std::to_string(rec.bin) +
                           " (checkpoint/journal mismatch)");
      }
      break;
    }
    case OpKind::kAdvance:        // a clock note: the clock moves on ops
    case OpKind::kTenantCredits:  // read into RecoveryReport::tenant_credits
      break;
  }
}

}  // namespace

DurableDispatcher::DurableDispatcher(std::size_t dim, Policy& policy,
                                     DurableOptions options,
                                     double bin_capacity)
    : policy_(policy), options_(std::move(options)),
      dispatcher_(dim, policy, bin_capacity, options_.observer) {
  policy_.reset();
  // Install the listener before replay: recovery is a re-run of history,
  // and per-tenant accounting has to see that history too.
  dispatcher_.set_usage_hook(options_.usage_hook);
  dispatcher_.set_recorder(&recorder_);
  if (options_.dir.empty()) return;
  recover();
  JournalOptions jopts;
  jopts.fsync = options_.fsync;
  jopts.fsync_interval_ops = options_.fsync_interval_ops;
  jopts.metrics = options_.metrics;
  writer_ = std::make_unique<JournalWriter>(options_.dir,
                                            recovery_.next_seq, jopts);
  if (options_.metrics != nullptr) {
    checkpoints_total_ =
        &options_.metrics->counter("dvbp.persist.checkpoints_total");
  }
}

// The startup sequence of the header comment.
void DurableDispatcher::recover() {
  const auto t0 = std::chrono::steady_clock::now();
  JournalScan scan = scan_journal(options_.dir);
  if (scan.torn_tail) {
    truncate_torn_tail(scan);
    recovery_.torn_tail = true;
    recovery_.tail_bytes_discarded = scan.tail_bytes_discarded;
  }

  if (auto ckpt = load_newest_checkpoint(options_.dir)) {
    recovery_.had_checkpoint = true;
    recovery_.checkpoint_seq = ckpt->seq;
    recovery_.last_seq = ckpt->seq;
    if (ckpt->policy_name != policy_.name()) {
      throw PersistError("recovery: checkpoint in '" + options_.dir +
                         "' was written by policy '" + ckpt->policy_name +
                         "', refusing to restore into '" +
                         std::string(policy_.name()) + "'");
    }
    serial::Reader disp_in(ckpt->dispatcher_state);
    dispatcher_.restore_state(disp_in);
    policy_.reset();
    serial::Reader pol_in(ckpt->policy_state);
    policy_.restore_state(pol_in);
    serial::Reader extra(ckpt->extra);
    recorder_.restore_state(extra);
    // The hook's state follows the recorder's (none when the checkpoint
    // was written without a hook).
    if (options_.usage_hook != nullptr && !extra.done()) {
      options_.usage_hook->restore_state(extra);
      if (!extra.done()) {
        throw serial::SerialError(
            "recovery: trailing bytes in the checkpoint's extra blob");
      }
    }
  }

  for (const JournalRecord& rec : scan.records) {
    if (rec.seq <= recovery_.checkpoint_seq) continue;
    try {
      apply_record(dispatcher_, rec);
    } catch (const std::logic_error& e) {
      throw PersistError("recovery: frame " + std::to_string(rec.seq) +
                         " does not apply (checkpoint/journal mismatch): " +
                         e.what());
    }
    // Credit frames carry the whole settled state, so only the newest one
    // matters.
    if (rec.kind == OpKind::kTenantCredits) {
      recovery_.tenant_credits = rec.blob;
    }
    recovery_.replayed_ops += 1;
    recovery_.last_seq = rec.seq;
  }
  recovery_.next_seq = recovery_.last_seq + 1;

  if (options_.metrics != nullptr) {
    const auto elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    options_.metrics->gauge("dvbp.persist.recovery_ms").set(elapsed);
    options_.metrics->counter("dvbp.persist.replayed_ops_total")
        .inc(recovery_.replayed_ops);
    if (recovery_.tail_bytes_discarded > 0) {
      options_.metrics->counter("dvbp.persist.torn_tail_bytes_total")
          .inc(recovery_.tail_bytes_discarded);
    }
  }
}

// Poisoned on entry and cleared on success, like the JournalWriter: if the
// step throws, the engine stays dead.
template <typename Step>
void DurableDispatcher::guarded(Step&& step) {
  if (dead_) {
    throw PersistError("durable: the journal in '" + options_.dir +
                       "' failed earlier; recover from it");
  }
  dead_ = true;
  step();
  dead_ = false;
}

// Every journaling call applies its op first -- a rejected op (it throws)
// must never reach the journal -- then lands here.
template <typename Append>
void DurableDispatcher::journal(Append&& append) {
  if (writer_ == nullptr) return;
  guarded(append);
  ++ops_since_checkpoint_;
  if (!batching_) end_batch();
}

void DurableDispatcher::end_batch() {
  batching_ = false;
  if (writer_ == nullptr || writer_->pending_ops() == 0) return;
  guarded([this] { writer_->commit(); });
  if (options_.checkpoint_every > 0 &&
      ops_since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint();
  }
}

Dispatcher::Admission DurableDispatcher::arrive(Time now, RVec size,
                                                Time expected_departure,
                                                TenantId tenant) {
  return arrive(now, Item(static_cast<JobId>(dispatcher_.jobs_admitted()),
                          now, expected_departure, std::move(size), tenant));
}

Dispatcher::Admission DurableDispatcher::arrive(Time now, const Item& item) {
  const auto admission = dispatcher_.arrive(now, item);
  journal([&] {
    writer_->append(OpKind::kArrive, now, admission.job, item.departure,
                    &item.size, kNoBin, false, item.tenant);
  });
  return admission;
}

void DurableDispatcher::depart(Time now, JobId job) {
  dispatcher_.depart(now, job);
  journal([&] { writer_->append(OpKind::kDepart, now, job); });
}

Dispatcher::Eviction DurableDispatcher::evict(Time now, JobId job) {
  const auto eviction = dispatcher_.evict(now, job);
  journal([&] { writer_->append(OpKind::kEvict, now, job); });
  return eviction;
}

BinId DurableDispatcher::replace(Time now, JobId job, BinId target) {
  const bool new_bin = target == kNoBin;
  const BinId bin = dispatcher_.replace(now, job, target);
  journal([&] {
    writer_->append(OpKind::kReplace, now, job, 0.0, nullptr, bin, new_bin);
  });
  return bin;
}

MigrationExec DurableDispatcher::migration_exec() {
  return MigrationExec{
      [this](Time t, JobId j) { evict(t, j); },
      [this](Time t, JobId j, BinId b) { return replace(t, j, b); }};
}

void DurableDispatcher::settle_credits(
    Time now, const std::vector<std::uint8_t>& credit_state) {
  journal([&] { writer_->append_credits(now, credit_state); });
}

void DurableDispatcher::flush() {
  if (writer_ != nullptr) guarded([this] { writer_->sync(); });
}

void DurableDispatcher::checkpoint() {
  if (writer_ == nullptr) return;
  guarded([this] {
    // The checkpoint must never claim ops the journal could still lose, so
    // force everything durable first.
    writer_->sync();
    CheckpointData data;
    data.seq = writer_->next_seq() - 1;
    data.policy_name = std::string(policy_.name());
    serial::Writer disp_out;
    dispatcher_.save_state(disp_out);
    data.dispatcher_state = disp_out.take();
    serial::Writer pol_out;
    policy_.save_state(pol_out);
    data.policy_state = pol_out.take();
    serial::Writer extra;
    recorder_.save_state(extra);
    if (options_.usage_hook != nullptr) {
      options_.usage_hook->save_state(extra);
    }
    data.extra = extra.take();
    write_checkpoint(options_.dir, data);
    writer_->rotate();
    fault_point("checkpoint.truncated");
  });
  ops_since_checkpoint_ = 0;
  if (checkpoints_total_ != nullptr) checkpoints_total_->inc();
}

}  // namespace dvbp::persist
