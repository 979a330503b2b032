#include "persist/durable.hpp"

#include <utility>

#include "core/serial.hpp"
#include "persist/checkpoint.hpp"
#include "persist/fault.hpp"

namespace dvbp::persist {

DurableDispatcher::DurableDispatcher(std::size_t dim, Policy& policy,
                                     DurableOptions options,
                                     double bin_capacity)
    : policy_(policy), options_(std::move(options)),
      dispatcher_(dim, policy, bin_capacity, options_.observer) {
  policy_.reset();
  // Install the usage hook before replay: recovery is a re-run of history,
  // and per-tenant accounting has to see that history too.
  if (options_.usage_hook != nullptr) {
    dispatcher_.set_usage_hook(options_.usage_hook);
  }
  dispatcher_.set_recorder(&recorder_);
  recovery_ = recover_dispatcher(
      options_.dir, options_.metrics, dispatcher_, policy_,
      [this](serial::Reader& extra) { recorder_.restore_state(extra); });
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

// Every journaling call applies its op first -- a rejected op (it throws)
// must never reach the journal -- then appends the frame and lands here.
void DurableDispatcher::committed() {
  writer_->commit();
  ++ops_since_checkpoint_;
  maybe_checkpoint();
}

Dispatcher::Admission DurableDispatcher::arrive(Time now, RVec size,
                                                Time expected_departure,
                                                TenantId tenant) {
  return arrive(now, Item(static_cast<JobId>(dispatcher_.jobs_admitted()),
                          now, expected_departure, std::move(size), tenant));
}

Dispatcher::Admission DurableDispatcher::arrive(Time now, const Item& item) {
  const auto admission = dispatcher_.arrive(now, item);
  writer_->append(OpKind::kArrive, now, admission.job, item.departure,
                  &item.size, kNoBin, false, item.tenant);
  committed();
  return admission;
}

void DurableDispatcher::depart(Time now, JobId job) {
  dispatcher_.depart(now, job);
  writer_->append(OpKind::kDepart, now, job);
  committed();
}

void DurableDispatcher::advance(Time now) {
  writer_->append(OpKind::kAdvance, now, 0);
  committed();
}

Dispatcher::Eviction DurableDispatcher::evict(Time now, JobId job) {
  const auto eviction = dispatcher_.evict(now, job);
  writer_->append(OpKind::kEvict, now, job);
  committed();
  return eviction;
}

BinId DurableDispatcher::replace(Time now, JobId job, BinId target) {
  const bool new_bin = target == kNoBin;
  const BinId bin = dispatcher_.replace(now, job, target);
  writer_->append(OpKind::kReplace, now, job, 0.0, nullptr, bin, new_bin);
  committed();
  return bin;
}

MigrationExec DurableDispatcher::migration_exec() {
  return MigrationExec{
      [this](Time t, JobId j) { evict(t, j); },
      [this](Time t, JobId j, BinId b) { return replace(t, j, b); }};
}

void DurableDispatcher::settle_credits(
    Time now, const std::vector<std::uint8_t>& credit_state) {
  writer_->append_credits(now, credit_state);
  committed();
}

void DurableDispatcher::maybe_checkpoint() {
  if (options_.checkpoint_every == 0) return;
  if (ops_since_checkpoint_ >= options_.checkpoint_every) checkpoint();
}

void DurableDispatcher::checkpoint() {
  if (ops_since_checkpoint_ == 0) return;
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
  data.extra = extra.take();
  write_checkpoint(options_.dir, data);
  writer_->rotate();
  fault_point("checkpoint.truncated");
  ops_since_checkpoint_ = 0;
  if (checkpoints_total_ != nullptr) checkpoints_total_->inc();
}

}  // namespace dvbp::persist
