#include "persist/recovery.hpp"

#include <chrono>
#include <string>

#include "core/dispatcher.hpp"
#include "core/serial.hpp"

namespace dvbp::persist {

RecoveryReport recover_dispatcher(
    const std::string& dir, obs::MetricRegistry* metrics,
    Dispatcher& dispatcher, Policy& policy,
    const std::function<void(serial::Reader&)>& restore_extra,
    const std::function<void(const JournalRecord&)>& on_record) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryReport report;

  JournalScan scan = scan_journal(dir);
  if (scan.torn_tail) {
    truncate_torn_tail(scan);
    report.torn_tail = true;
    report.tail_bytes_discarded = scan.tail_bytes_discarded;
  }

  if (auto ckpt = load_newest_checkpoint(dir)) {
    report.had_checkpoint = true;
    report.checkpoint_seq = ckpt->seq;
    report.last_seq = ckpt->seq;
    if (ckpt->policy_name != policy.name()) {
      throw PersistError("recovery: checkpoint in '" + dir +
                         "' was written by policy '" + ckpt->policy_name +
                         "', refusing to restore into '" +
                         std::string(policy.name()) + "'");
    }
    serial::Reader disp_in(ckpt->dispatcher_state);
    dispatcher.restore_state(disp_in);
    policy.reset();
    serial::Reader pol_in(ckpt->policy_state);
    policy.restore_state(pol_in);
    serial::Reader extra(ckpt->extra);
    restore_extra(extra);
    if (!extra.done()) {
      throw serial::SerialError(
          "recovery: trailing bytes in the checkpoint's extra blob");
    }
  }

  for (const JournalRecord& rec : scan.records) {
    if (rec.seq <= report.checkpoint_seq) continue;
    if (on_record) on_record(rec);
    try {
      apply_record(dispatcher, rec);
    } catch (const std::logic_error& e) {
      throw PersistError("recovery: frame " + std::to_string(rec.seq) +
                         " does not apply (checkpoint/journal mismatch): " +
                         e.what());
    }
    // Credit frames carry the whole settled state, so only the newest one
    // matters.
    if (rec.kind == OpKind::kTenantCredits) {
      report.tenant_credits = rec.blob;
    }
    report.replayed_ops += 1;
    report.last_seq = rec.seq;
  }
  report.next_seq = report.last_seq + 1;

  if (metrics != nullptr) {
    const auto elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    metrics->gauge("dvbp.persist.recovery_ms").set(elapsed);
    metrics->counter("dvbp.persist.replayed_ops_total")
        .inc(report.replayed_ops);
    if (report.tail_bytes_discarded > 0) {
      metrics->counter("dvbp.persist.torn_tail_bytes_total")
          .inc(report.tail_bytes_discarded);
    }
  }
  return report;
}

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

}  // namespace dvbp::persist
