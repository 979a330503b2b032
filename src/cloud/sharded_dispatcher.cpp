#include "cloud/sharded_dispatcher.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/serial.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/fault.hpp"

namespace dvbp::cloud {

namespace {

/// Throws when `root` holds a journal for a shard at or past `shards`:
/// reopening it with fewer shards would silently drop that shard's jobs.
/// A shard directory with no checkpoint and only empty segments holds no
/// op (a recovery at a larger shard count leaves one behind) and passes.
void refuse_orphan_shards(const std::string& root, std::size_t shards) {
  namespace fs = std::filesystem;
  constexpr std::string_view kPrefix = "shard-";
  std::error_code ec;
  for (fs::directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!name.starts_with(kPrefix)) continue;
    const char* last = name.data() + name.size();
    std::size_t shard = 0;
    const auto [ptr, err] =
        std::from_chars(name.data() + kPrefix.size(), last, shard);
    if (err != std::errc() || ptr != last || shard < shards) continue;
    const std::string dir = it->path().string();
    bool holds_ops = !persist::checkpoint_files(dir).empty();
    for (const std::string& segment : persist::journal_segments(dir)) {
      std::error_code size_ec;
      holds_ops = holds_ops || fs::file_size(segment, size_ec) > 0;
    }
    if (holds_ops) {
      throw persist::PersistError(
          "ShardedDispatcher: '" + dir + "' holds a journal for shard " +
          std::to_string(shard) + ", but the service has only " +
          std::to_string(shards) + " shard(s); reopen with at least " +
          std::to_string(shard + 1));
    }
  }
}

/// Powers-of-two bounds for the ops-per-drain histogram.
std::vector<double> batch_size_bounds(std::size_t max_batch) {
  std::vector<double> bounds;
  for (std::size_t b = 1; b < max_batch; b *= 2) {
    bounds.push_back(static_cast<double>(b));
  }
  bounds.push_back(static_cast<double>(max_batch));
  return bounds;
}

}  // namespace

ShardedDispatcher::ShardedDispatcher(std::size_t dim,
                                     const PolicyFactory& factory,
                                     ShardedOptions options)
    : dim_(dim), options_(std::move(options)) {
  if (dim_ == 0) {
    throw std::invalid_argument("ShardedDispatcher: dim must be >= 1");
  }
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardedDispatcher: shards must be >= 1");
  }
  if (options_.bin_capacity < 1.0) {
    throw std::invalid_argument(
        "ShardedDispatcher: bin_capacity must be >= 1");
  }
  if (options_.queue_capacity == 0 || options_.max_batch == 0 ||
      options_.snapshot_every == 0) {
    throw std::invalid_argument(
        "ShardedDispatcher: queue_capacity, max_batch, and snapshot_every "
        "must be >= 1");
  }
  if (!options_.shard_tracers.empty() &&
      options_.shard_tracers.size() != options_.shards) {
    throw std::invalid_argument(
        "ShardedDispatcher: shard_tracers must be empty or have one entry "
        "per shard");
  }
  if (!factory) {
    throw std::invalid_argument("ShardedDispatcher: null policy factory");
  }

  router_ = make_router(options_.router, options_.shards);

  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->policy = factory(s);
    if (shard->policy == nullptr) {
      throw std::invalid_argument(
          "ShardedDispatcher: policy factory returned null for shard " +
          std::to_string(s));
    }
    obs::Tracer* tracer =
        options_.shard_tracers.empty() ? nullptr : options_.shard_tracers[s];
    if (options_.metrics != nullptr || tracer != nullptr) {
      shard->observer =
          std::make_unique<obs::Observer>(options_.metrics, tracer);
    }
    shard->dispatcher = std::make_unique<Dispatcher>(
        dim_, *shard->policy, options_.bin_capacity, shard->observer.get());
    if (options_.tenants > 0) {
      shard->accountant =
          std::make_unique<tenancy::UsageAccountant>(options_.tenants);
      shard->dispatcher->set_usage_hook(shard->accountant.get());
    }
    if (options_.metrics != nullptr) {
      const std::string prefix = "dvbp.shard." + std::to_string(s) + ".";
      shard->queue_depth = &options_.metrics->gauge(prefix + "queue_depth");
      shard->batch_size = &options_.metrics->histogram(
          prefix + "batch_size", batch_size_bounds(options_.max_batch));
      shard->placement_latency =
          &options_.metrics->histogram(prefix + "placement_latency_ns");
      shard->ops_applied_total =
          &options_.metrics->counter(prefix + "ops_applied_total");
    }
    shards_.push_back(std::move(shard));
  }
  // Durable mode: recover every shard from its journal directory -- each
  // shard independently, no cross-shard coordination -- then rebuild the
  // global job table and router state from the recovered shards. Runs
  // before the workers start, so recovery needs no locks.
  if (!options_.journal_dir.empty()) {
    refuse_orphan_shards(options_.journal_dir, shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) recover_shard(s);
    rebuild_job_table();
  }
  // Workers start only after every shard is fully constructed.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { worker_loop(s); });
  }
}

std::string ShardedDispatcher::shard_journal_dir(
    std::size_t shard_idx) const {
  return options_.journal_dir + "/shard-" + std::to_string(shard_idx);
}

void ShardedDispatcher::recover_shard(std::size_t shard_idx) {
  Shard& shard = *shards_[shard_idx];
  shard.journal_path = shard_journal_dir(shard_idx);
  persist::RecoveryManager manager(shard.journal_path, options_.metrics);
  // Journal frames carry service-global job ids; replay maps them onto
  // shard-local ids exactly the way the live path does (dense, in
  // admission order).
  std::unordered_map<JobId, JobId> local_of_global;
  shard.recovery = manager.run(
      [&](const persist::CheckpointData& ckpt) {
        if (ckpt.policy_name != shard.policy->name()) {
          throw persist::PersistError(
              "ShardedDispatcher: shard " + std::to_string(shard_idx) +
              " checkpoint was written by policy '" + ckpt.policy_name +
              "', refusing to restore into '" +
              std::string(shard.policy->name()) + "'");
        }
        serial::Reader disp_in(ckpt.dispatcher_state);
        shard.dispatcher->restore_state(disp_in);
        shard.policy->reset();
        serial::Reader pol_in(ckpt.policy_state);
        shard.policy->restore_state(pol_in);
        serial::Reader extra(ckpt.extra);
        const std::uint64_t n = extra.u64();
        shard.global_of_local.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
          const JobId global = static_cast<JobId>(extra.u64());
          local_of_global.emplace(global,
                                  static_cast<JobId>(
                                      shard.global_of_local.size()));
          shard.global_of_local.push_back(global);
        }
        // Tenancy checkpoints append the shard accountant's ledger after
        // the job map; pre-tenancy checkpoints simply end here.
        if (!extra.done()) {
          if (shard.accountant == nullptr) {
            throw persist::PersistError(
                "ShardedDispatcher: shard checkpoint carries tenant state "
                "but tenancy is off (set ShardedOptions::tenants)");
          }
          shard.accountant->restore_state(extra);
        }
        if (!extra.done()) {
          throw serial::SerialError(
              "ShardedDispatcher: trailing bytes in shard checkpoint");
        }
        if (shard.global_of_local.size() !=
            shard.dispatcher->jobs_admitted()) {
          throw persist::PersistError(
              "ShardedDispatcher: shard checkpoint job map does not match "
              "its dispatcher state");
        }
      },
      [&](const persist::JournalRecord& rec) {
        // The journaled time/expected-departure are the post-clamp values
        // the worker actually applied, so replay passes them verbatim.
        if (rec.kind == persist::OpKind::kArrive) {
          const JobId global = static_cast<JobId>(rec.job);
          shard.dispatcher->arrive(rec.time, rec.size,
                                   rec.expected_departure, rec.tenant);
          local_of_global.emplace(
              global,
              static_cast<JobId>(shard.global_of_local.size()));
          shard.global_of_local.push_back(global);
        } else if (rec.kind == persist::OpKind::kDepart) {
          const auto it = local_of_global.find(static_cast<JobId>(rec.job));
          if (it == local_of_global.end()) {
            throw persist::PersistError(
                "ShardedDispatcher: journal departs job " +
                std::to_string(rec.job) + " the shard never admitted");
          }
          shard.dispatcher->depart(rec.time, it->second);
        }
        // kAdvance: clock note only; the shard clock moves on apply.
        // kTenantCredits: captured into recovery.tenant_credits by run().
      });
  persist::JournalOptions jopts;
  jopts.fsync = options_.fsync;
  jopts.fsync_interval_ops = options_.fsync_interval_ops;
  jopts.metrics = options_.metrics;
  shard.journal = std::make_unique<persist::JournalWriter>(
      shard.journal_path, shard.recovery.next_seq, jopts);
  shard.load_snapshot.store(shard.dispatcher->total_active_load(),
                            std::memory_order_relaxed);
}

void ShardedDispatcher::rebuild_job_table() {
  std::uint64_t next = 0;
  for (const auto& shard : shards_) {
    for (const JobId global : shard->global_of_local) {
      next = std::max(next, static_cast<std::uint64_t>(global) + 1);
    }
  }
  if (next == 0) return;  // cold start
  if (next > static_cast<std::uint64_t>(kMaxChunks) * kJobChunkSize) {
    throw persist::PersistError(
        "ShardedDispatcher: recovered job ids exceed the job table");
  }
  next_job_.store(next, std::memory_order_release);
  const std::size_t chunks =
      (static_cast<std::size_t>(next) + kJobChunkSize - 1) >> kJobChunkBits;
  for (std::size_t c = 0; c < chunks; ++c) {
    job_chunks_[c].store(new JobRec[kJobChunkSize],
                         std::memory_order_release);
  }
  // Default every recovered id to "departed": an id whose arrival frame
  // did not survive on its shard (it was admitted but lost in the crash)
  // must make a stale depart() fail cleanly, not dereference kNoItem.
  for (std::uint64_t id = 0; id < next; ++id) {
    JobRec& rec = job_rec(static_cast<JobId>(id));
    rec.departed.store(true, std::memory_order_relaxed);
    rec.local = kNoItem;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    for (std::size_t local = 0; local < shard.global_of_local.size();
         ++local) {
      JobRec& rec = job_rec(shard.global_of_local[local]);
      // A cross-shard-migrated job (rebalance_shards: depart on the
      // source, arrive on the destination) appears in both shards'
      // journals. The shard where it is still active owns it; when it is
      // active nowhere (migrated then departed) the first claim stands.
      const bool active_here =
          shard.dispatcher->bin_of(static_cast<JobId>(local)) != kNoBin;
      if (rec.local != kNoItem && !active_here) continue;
      rec.shard.store(static_cast<std::uint32_t>(s),
                      std::memory_order_relaxed);
      rec.local = static_cast<JobId>(local);
      rec.departed.store(!active_here, std::memory_order_relaxed);
    }
  }
  // Round-robin's counter advanced once per admission in the original
  // run; rendezvous is a pure function and least-usage re-derives from
  // the load snapshots refreshed in recover_shard().
  router_->restore_persistent_state(next);
}

ShardedDispatcher::~ShardedDispatcher() {
  for (auto& shard : shards_) {
    shard->stopping.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(shard->qmu);
      shard->stop = true;
    }
    shard->not_empty.notify_all();
    shard->not_full.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  for (auto& chunk : job_chunks_) {
    delete[] chunk.load(std::memory_order_acquire);
  }
}

ShardedDispatcher::Op ShardedDispatcher::prepare_arrive(
    Time now, RVec size, Time expected_departure,
    std::shared_ptr<CompletionSink> sink, std::uint64_t cookie,
    TenantId tenant, std::size_t& target_out) {
  // Validate here, in the producer, so the asynchronous apply cannot throw
  // for caller mistakes (mirrors Dispatcher::arrive's checks).
  if (size.dim() != dim_) {
    throw std::invalid_argument(
        "ShardedDispatcher::arrive: dimension mismatch");
  }
  if (!size.is_nonnegative() || !size.fits_in_capacity(1.0)) {
    throw std::invalid_argument(
        "ShardedDispatcher::arrive: size outside [0,1]^d");
  }
  if (!(expected_departure > now)) {
    throw std::invalid_argument(
        "ShardedDispatcher::arrive: expected departure must exceed arrival");
  }

  std::size_t target = 0;
  if (router_->kind() == RouterKind::kLeastUsage) {
    std::vector<double> loads(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      // Snapshot load plus queued-but-unapplied arrivals: keeps a burst
      // from piling onto one shard between snapshot refreshes.
      loads[s] =
          shards_[s]->load_snapshot.load(std::memory_order_relaxed) +
          static_cast<double>(std::max<std::int64_t>(
              0, shards_[s]->pending_arrivals.load(
                     std::memory_order_relaxed)));
    }
    target = router_->route(0, loads);
  }

  const std::uint64_t id = next_job_.fetch_add(1, std::memory_order_relaxed);
  if (id >= static_cast<std::uint64_t>(kMaxChunks) * kJobChunkSize) {
    throw std::length_error(
        "ShardedDispatcher::arrive: job id space exhausted");
  }
  const JobId job = static_cast<JobId>(id);
  const std::size_t chunk = job >> kJobChunkBits;
  if (job_chunks_[chunk].load(std::memory_order_acquire) == nullptr) {
    std::lock_guard<std::mutex> lock(chunk_mu_);
    if (job_chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
      job_chunks_[chunk].store(new JobRec[kJobChunkSize],
                               std::memory_order_release);
    }
  }
  if (router_->kind() != RouterKind::kLeastUsage) {
    target = router_->route(job, {});
  }
  job_rec(job).shard.store(static_cast<std::uint32_t>(target),
                           std::memory_order_release);

  Op op;
  op.kind = Op::Kind::kArrive;
  op.time = now;
  op.job = job;
  op.size = std::move(size);
  op.expected_departure = expected_departure;
  op.tenant = tenant;
  op.sink = std::move(sink);
  op.cookie = cookie;
  if (options_.metrics != nullptr) {
    op.enqueued = std::chrono::steady_clock::now();
  }
  if (router_->kind() == RouterKind::kLeastUsage) {
    // Only the least-usage router reads this; skip the shared-line RMW for
    // the routers that do not balance on load.
    shards_[target]->pending_arrivals.fetch_add(1,
                                                std::memory_order_relaxed);
  }
  target_out = target;
  return op;
}

JobId ShardedDispatcher::arrive(Time now, RVec size,
                                Time expected_departure, TenantId tenant) {
  std::size_t target = 0;
  Op op = prepare_arrive(now, std::move(size), expected_departure, nullptr,
                         0, tenant, target);
  const JobId job = op.job;
  enqueue(target, std::move(op));
  return job;
}

std::optional<JobId> ShardedDispatcher::try_arrive(
    Time now, RVec size, Time expected_departure,
    std::shared_ptr<CompletionSink> sink, std::uint64_t cookie,
    TenantId tenant) {
  std::size_t target = 0;
  Op op = prepare_arrive(now, std::move(size), expected_departure,
                         std::move(sink), cookie, tenant, target);
  const JobId job = op.job;
  if (try_enqueue(target, op)) return job;
  // Rejected by backpressure: the job id was already published, so retire
  // it -- a stray depart() for it fails cleanly ("already departed") and
  // quiescent readers see local == kNoItem, like a recovered-but-lost id.
  job_rec(job).departed.store(true, std::memory_order_release);
  if (router_->kind() == RouterKind::kLeastUsage) {
    shards_[target]->pending_arrivals.fetch_sub(1, std::memory_order_relaxed);
  }
  return std::nullopt;
}

ShardedDispatcher::JobRec& ShardedDispatcher::checked_job_rec(
    JobId job, const char* caller) const {
  if (job >= next_job_.load(std::memory_order_acquire) ||
      job_chunks_[job >> kJobChunkBits].load(std::memory_order_acquire) ==
          nullptr) {
    throw std::invalid_argument(std::string("ShardedDispatcher::") + caller +
                                ": unknown job");
  }
  return job_rec(job);
}

void ShardedDispatcher::depart(Time now, JobId job) {
  JobRec& rec = checked_job_rec(job, "depart");
  // exchange() makes racing double-departs fail deterministically in
  // exactly one caller.
  if (rec.departed.exchange(true, std::memory_order_acq_rel)) {
    throw std::invalid_argument(
        "ShardedDispatcher::depart: job already departed");
  }
  const std::size_t target = rec.shard.load(std::memory_order_acquire);
  Op op;
  op.kind = Op::Kind::kDepart;
  op.time = now;
  op.job = job;
  if (options_.metrics != nullptr) {
    op.enqueued = std::chrono::steady_clock::now();
  }
  enqueue(target, std::move(op));
}

bool ShardedDispatcher::try_depart(Time now, JobId job,
                                   std::shared_ptr<CompletionSink> sink,
                                   std::uint64_t cookie) {
  JobRec& rec = checked_job_rec(job, "depart");
  if (rec.departed.exchange(true, std::memory_order_acq_rel)) {
    throw std::invalid_argument(
        "ShardedDispatcher::depart: job already departed");
  }
  const std::size_t target = rec.shard.load(std::memory_order_acquire);
  Op op;
  op.kind = Op::Kind::kDepart;
  op.time = now;
  op.job = job;
  op.sink = std::move(sink);
  op.cookie = cookie;
  if (options_.metrics != nullptr) {
    op.enqueued = std::chrono::steady_clock::now();
  }
  if (try_enqueue(target, op)) return true;
  // Backpressure: roll the departed flag back so the caller can retry.
  // Note the rollback is not linearizable against a *concurrent* depart of
  // the same job by another caller (it could observe "already departed"
  // during our window); the network front-end owns each job id via a
  // single connection, so the race cannot arise there.
  rec.departed.store(false, std::memory_order_release);
  return false;
}

void ShardedDispatcher::enqueue(std::size_t shard_idx, Op op) {
  Shard& shard = *shards_[shard_idx];
  shard.ops_enqueued.fetch_add(1, std::memory_order_relaxed);
  std::size_t depth;
  bool was_empty;
  {
    std::unique_lock<std::mutex> lock(shard.qmu);
    shard.not_full.wait(lock, [&] {
      return shard.stop || shard.queue.size() < options_.queue_capacity;
    });
    if (shard.stop) {
      throw std::logic_error(
          "ShardedDispatcher: enqueue after shutdown started");
    }
    was_empty = shard.queue.empty();
    shard.queue.push_back(std::move(op));
    depth = shard.queue.size();
    shard.qsize.store(depth, std::memory_order_release);
  }
  if (shard.queue_depth != nullptr) {
    shard.queue_depth->set(static_cast<double>(depth));
  }
  // The worker only sleeps on an empty queue (it rechecks the predicate
  // under qmu before waiting), so only the empty -> non-empty transition
  // needs a wakeup; skipping the rest keeps the producer hot path cheap.
  if (was_empty) shard.not_empty.notify_one();
}

bool ShardedDispatcher::try_enqueue(std::size_t shard_idx, Op& op) {
  Shard& shard = *shards_[shard_idx];
  std::size_t depth;
  bool was_empty;
  {
    std::unique_lock<std::mutex> lock(shard.qmu);
    if (shard.stop || shard.queue.size() >= options_.queue_capacity) {
      return false;
    }
    // Counted before the push (like enqueue(), which counts before even
    // taking the lock) so ops_applied_ can never transiently exceed
    // ops_enqueued() and fool require_quiescent().
    shard.ops_enqueued.fetch_add(1, std::memory_order_relaxed);
    was_empty = shard.queue.empty();
    shard.queue.push_back(std::move(op));
    depth = shard.queue.size();
    shard.qsize.store(depth, std::memory_order_release);
  }
  if (shard.queue_depth != nullptr) {
    shard.queue_depth->set(static_cast<double>(depth));
  }
  if (was_empty) shard.not_empty.notify_one();
  return true;
}

void ShardedDispatcher::worker_loop(std::size_t shard_idx) {
  Shard& shard = *shards_[shard_idx];
  std::vector<Op> batch;
  batch.reserve(options_.max_batch);
  std::vector<Completion> completions;
  for (;;) {
    // Spin briefly before sleeping: under sustained load the queue refills
    // within microseconds, and skipping the condvar round-trip (futex wake
    // + scheduler latency per empty->non-empty transition) is what keeps
    // a lightly-loaded shard's throughput from being wakeup-bound. Falls
    // through to a normal blocking wait when the spin finds nothing.
    for (int spin = 0;
         spin < 4000 &&
         shard.qsize.load(std::memory_order_acquire) == 0 &&
         !shard.stopping.load(std::memory_order_acquire);
         ++spin) {
      // Donate the slice periodically: on an oversubscribed machine the
      // producer that would refill this queue may be waiting for this very
      // core, and a blind spin would burn the whole quantum starving it.
      // With spare cores and nothing runnable, yield() returns immediately
      // and the loop stays hot.
      if ((spin & 63) == 63) std::this_thread::yield();
    }
    std::size_t depth_after;
    {
      std::unique_lock<std::mutex> lock(shard.qmu);
      shard.not_empty.wait(
          lock, [&] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop requested and fully drained
      while (!shard.queue.empty() && batch.size() < options_.max_batch) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      depth_after = shard.queue.size();
      shard.qsize.store(depth_after, std::memory_order_release);
    }
    shard.not_full.notify_all();
    if (shard.queue_depth != nullptr) {
      shard.queue_depth->set(static_cast<double>(depth_after));
    }
    if (shard.batch_size != nullptr) {
      shard.batch_size->observe(static_cast<double>(batch.size()));
    }

    apply_batch(shard, batch, completions);

    // Completions fire after the batch's journal commit and outside the
    // shard lock, but BEFORE the applied counter publishes progress: when
    // drain() returns, every accepted op's completion has already run --
    // the guarantee the server's graceful drain leans on (every accepted
    // request gets its response before the drain snapshot is taken).
    for (Completion& c : completions) {
      c.sink->op_applied(c.cookie, c.job);
    }
    completions.clear();

    // Publish progress, then notify only if somebody is draining. Both
    // sides use seq_cst (Dekker pattern: applied-store/waiters-load here,
    // waiters-store/applied-load in drain()), and the empty lock keeps the
    // notify from slipping between the drainer's predicate check and its
    // wait.
    ops_applied_.fetch_add(batch.size());
    if (drain_waiters_.load() > 0) {
      { std::lock_guard<std::mutex> lock(drain_mu_); }
      drain_cv_.notify_all();
    }
    batch.clear();
  }
}

void ShardedDispatcher::apply_batch(Shard& shard, std::vector<Op>& batch,
                                    std::vector<Completion>& completions) {
  std::lock_guard<std::mutex> lock(shard.mu);
  Dispatcher& dispatcher = *shard.dispatcher;
  std::size_t since_snapshot = 0;
  std::size_t journaled_ops = 0;
  for (Op& op : batch) {
    if (op.sink != nullptr) {
      completions.push_back({std::move(op.sink), op.cookie, op.job});
    }
    try {
      // Per-shard monotone clamp: multiple producers can interleave, so an
      // op's timestamp may lag the shard clock; it is applied at the clock
      // (the way an ingestion front-end stamps requests). Single-producer
      // feeds are monotone and never clamped.
      const Time t = std::max(op.time, dispatcher.last_event_time());
      if (op.kind == Op::Kind::kArrive) {
        const JobId local = static_cast<JobId>(dispatcher.jobs_admitted());
        // The advisory departure can be overtaken by the clamp; it is only
        // a clairvoyant hint, so degrade it to "unknown" rather than throw.
        const Time expected =
            op.expected_departure > t
                ? op.expected_departure
                : std::numeric_limits<Time>::infinity();
        // The journal records exactly what arrive() is called with --
        // post-clamp time, degraded hint -- so replay reproduces the run
        // bit-exactly by passing the frame verbatim.
        RVec journal_size;
        const bool journal_op =
            shard.journal != nullptr && !shard.journal_dead;
        if (journal_op) journal_size = op.size;
        dispatcher.arrive(t, std::move(op.size), expected, op.tenant);
        shard.global_of_local.push_back(op.job);
        // `local` is worker-owned: the only other readers are the FIFO-
        // later depart op (applied by this same worker) and quiescent
        // accessors, which synchronize through ops_applied_ in drain().
        job_rec(op.job).local = local;
        if (router_->kind() == RouterKind::kLeastUsage) {
          shard.pending_arrivals.fetch_sub(1, std::memory_order_relaxed);
        }
        if (journal_op) {
          try {
            shard.journal->append(persist::OpKind::kArrive, t, op.job,
                                  expected, &journal_size, kNoBin, false,
                                  op.tenant);
            ++journaled_ops;
          } catch (...) {
            shard.journal_dead = true;
            record_worker_error();
          }
        }
      } else {
        dispatcher.depart(t, job_rec(op.job).local);
        if (shard.journal != nullptr && !shard.journal_dead) {
          try {
            shard.journal->append(persist::OpKind::kDepart, t, op.job);
            ++journaled_ops;
          } catch (...) {
            shard.journal_dead = true;
            record_worker_error();
          }
        }
      }
    } catch (...) {
      // A failure here is a service bug (producer-side validation screens
      // caller mistakes); remember the first error for drain() and keep
      // counting ops so nobody deadlocks waiting for them.
      record_worker_error();
    }
    if (shard.ops_applied_total != nullptr) shard.ops_applied_total->inc();
    if (shard.placement_latency != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - op.enqueued;
      shard.placement_latency->observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
    if (++since_snapshot >= options_.snapshot_every) {
      since_snapshot = 0;
      shard.load_snapshot.store(dispatcher.total_active_load(),
                                std::memory_order_relaxed);
    }
  }
  shard.load_snapshot.store(dispatcher.total_active_load(),
                            std::memory_order_relaxed);
  // Group commit: the whole drained batch goes down with one write(2) and
  // at most one fsync. A commit failure (I/O error, injected fault)
  // permanently kills this shard's journal -- memory may now be ahead of
  // the durable state, so the service must be abandoned and recovered; the
  // error surfaces through drain().
  if (shard.journal != nullptr && !shard.journal_dead && journaled_ops > 0) {
    try {
      shard.journal->commit();
      shard.ops_since_checkpoint += journaled_ops;
      if (options_.checkpoint_every > 0 &&
          shard.ops_since_checkpoint >= options_.checkpoint_every) {
        checkpoint_shard(shard);
      }
    } catch (...) {
      shard.journal_dead = true;
      record_worker_error();
    }
  }
}

void ShardedDispatcher::checkpoint_shard(Shard& shard) {
  // Never claim ops the journal could still lose.
  shard.journal->sync();
  persist::CheckpointData data;
  data.seq = shard.journal->next_seq() - 1;
  data.policy_name = std::string(shard.policy->name());
  serial::Writer disp_out;
  shard.dispatcher->save_state(disp_out);
  data.dispatcher_state = disp_out.take();
  serial::Writer pol_out;
  shard.policy->save_state(pol_out);
  data.policy_state = pol_out.take();
  serial::Writer extra;
  extra.u64(shard.global_of_local.size());
  for (const JobId global : shard.global_of_local) extra.u64(global);
  // Trailing accountant ledger, matching the optional tail recover_shard
  // reads; omitted entirely when tenancy is off.
  if (shard.accountant != nullptr) shard.accountant->save_state(extra);
  data.extra = extra.take();
  persist::write_checkpoint(shard.journal_path, data);
  shard.journal->rotate();
  persist::fault_point("checkpoint.truncated");
  shard.ops_since_checkpoint = 0;
  if (options_.metrics != nullptr) {
    options_.metrics->counter("dvbp.persist.checkpoints_total").inc();
  }
}

void ShardedDispatcher::record_worker_error() {
  std::lock_guard<std::mutex> error_lock(error_mu_);
  if (!worker_error_) worker_error_ = std::current_exception();
}

const persist::RecoveryReport& ShardedDispatcher::shard_recovery(
    std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_recovery: bad shard");
  }
  return shards_[shard]->recovery;
}

std::uint64_t ShardedDispatcher::ops_enqueued() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ops_enqueued.load(std::memory_order_relaxed);
  }
  return total;
}

void ShardedDispatcher::drain() {
  const std::uint64_t target = ops_enqueued();
  if (ops_applied_.load() < target) {
    drain_waiters_.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(drain_mu_);
      drain_cv_.wait(lock, [&] { return ops_applied_.load() >= target; });
    }
    drain_waiters_.fetch_sub(1);
  }
  std::lock_guard<std::mutex> lock(error_mu_);
  if (worker_error_) std::rethrow_exception(worker_error_);
}

void ShardedDispatcher::sync_journals() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    // The worker touches the journal only inside apply_batch under
    // shard.mu, so holding it here excludes concurrent appends.
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.journal == nullptr || shard.journal_dead) continue;
    try {
      shard.journal->sync();
    } catch (...) {
      shard.journal_dead = true;
      record_worker_error();
    }
  }
}

std::uint64_t ShardedDispatcher::ops_applied() const {
  return ops_applied_.load(std::memory_order_acquire);
}

std::size_t ShardedDispatcher::jobs_admitted() const {
  return static_cast<std::size_t>(
      next_job_.load(std::memory_order_acquire));
}

std::size_t ShardedDispatcher::shard_of(JobId job) const {
  return checked_job_rec(job, "shard_of")
      .shard.load(std::memory_order_acquire);
}

double ShardedDispatcher::cost_so_far(Time at) const {
  double total = 0.0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += shard_cost_so_far(s, at);
  }
  return total;
}

std::size_t ShardedDispatcher::open_bins() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->dispatcher->open_bins();
  }
  return total;
}

std::size_t ShardedDispatcher::bins_opened() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->dispatcher->bins_opened();
  }
  return total;
}

std::size_t ShardedDispatcher::jobs_active() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->dispatcher->jobs_active();
  }
  return total;
}

double ShardedDispatcher::shard_cost_so_far(std::size_t shard,
                                            Time at) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_cost_so_far: bad shard");
  }
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->dispatcher->cost_so_far(at);
}

std::size_t ShardedDispatcher::shard_open_bins(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_open_bins: bad shard");
  }
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->dispatcher->open_bins();
}

std::size_t ShardedDispatcher::shard_bins_opened(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_bins_opened: bad shard");
  }
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->dispatcher->bins_opened();
}

std::size_t ShardedDispatcher::shard_jobs_admitted(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_jobs_admitted: bad shard");
  }
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->dispatcher->jobs_admitted();
}

void ShardedDispatcher::require_quiescent() const {
  if (ops_applied_.load(std::memory_order_acquire) != ops_enqueued()) {
    throw std::logic_error(
        "ShardedDispatcher: snapshot requires quiescence (call drain() "
        "with no concurrent producers)");
  }
  std::lock_guard<std::mutex> lock(error_mu_);
  if (worker_error_) std::rethrow_exception(worker_error_);
}

Packing ShardedDispatcher::shard_packing(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_packing: bad shard");
  }
  require_quiescent();
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  // assignment[j] = last bin j was packed into -- identical to a
  // records() scan without migration, and still correct when migration
  // lists a job in several bins (core/rebalancer.hpp).
  return shards_[shard]->dispatcher->packing();
}

Packing ShardedDispatcher::snapshot() const {
  require_quiescent();
  // Bin ids are renumbered shard-major: shard s's bins keep their relative
  // opening order and live at [offset(s), offset(s) + bins_opened(s)).
  std::vector<BinId> offsets(shards_.size(), 0);
  std::size_t total_bins = 0;
  std::size_t total_jobs = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    offsets[s] = static_cast<BinId>(total_bins);
    total_bins += shards_[s]->dispatcher->bins_opened();
    total_jobs += shards_[s]->dispatcher->jobs_admitted();
  }

  std::vector<BinId> assignment(total_jobs, kNoBin);
  std::vector<BinRecord> bins;
  bins.reserve(total_bins);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    const Shard& shard = *shards_[s];
    for (const BinRecord& rec : shard.dispatcher->records()) {
      BinRecord merged = rec;
      merged.id = rec.id + offsets[s];
      for (ItemId& item : merged.items) {
        item = shard.global_of_local[item];
      }
      bins.push_back(std::move(merged));
    }
    // Assignment comes from each shard's last-bin table, not the record
    // scan: under migration a job is listed in every bin it ever
    // occupied. A cross-shard-migrated job appears in two shards'
    // local tables; its final owner per the job table wins.
    for (std::size_t local = 0; local < shard.global_of_local.size();
         ++local) {
      const JobId global = shard.global_of_local[local];
      if (job_rec(global).shard.load(std::memory_order_acquire) !=
          static_cast<std::uint32_t>(s)) {
        continue;
      }
      assignment[global] =
          shard.dispatcher->last_bin_of(static_cast<JobId>(local)) +
          offsets[s];
    }
  }
  return Packing(std::move(assignment), std::move(bins));
}

JobId ShardedDispatcher::global_job(std::size_t shard, JobId local) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::global_job: bad shard");
  }
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  if (local >= shards_[shard]->global_of_local.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::global_job: unknown local job");
  }
  return shards_[shard]->global_of_local[local];
}

const Item& ShardedDispatcher::job_item(JobId job) const {
  require_quiescent();
  const JobRec& rec = checked_job_rec(job, "job_item");
  const std::uint32_t shard = rec.shard.load(std::memory_order_acquire);
  const JobId local = rec.local;
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->dispatcher->items()[local];
}

const Dispatcher& ShardedDispatcher::shard_dispatcher(
    std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_dispatcher: bad shard");
  }
  require_quiescent();
  return *shards_[shard]->dispatcher;
}

const tenancy::UsageAccountant* ShardedDispatcher::shard_accountant(
    std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedDispatcher::shard_accountant: bad shard");
  }
  return shards_[shard]->accountant.get();
}

std::vector<double> ShardedDispatcher::settle_tenants(
    Time now, tenancy::Arbiter& arbiter) {
  require_quiescent();
  if (options_.tenants == 0) {
    throw std::logic_error(
        "ShardedDispatcher::settle_tenants: tenancy is off "
        "(ShardedOptions::tenants == 0)");
  }
  if (arbiter.num_tenants() != options_.tenants) {
    throw std::invalid_argument(
        "ShardedDispatcher::settle_tenants: arbiter tenant count does not "
        "match ShardedOptions::tenants");
  }
  // Close the epoch on every shard at the same instant, then merge the
  // per-tenant integrals. Quiescence makes the merged vector exact: no op
  // is mid-flight, so every shard's ledger covers the same history.
  std::vector<double> usage(options_.tenants, 0.0);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.accountant->on_advance(
        std::max(now, shard.accountant->last_event()),
        shard.dispatcher->open_bins());
    const std::vector<double> cut = shard.accountant->cut_epoch();
    for (std::uint32_t t = 0; t < options_.tenants; ++t) usage[t] += cut[t];
  }
  arbiter.settle(now, usage);
  // One authoritative credit frame, journaled on shard 0: recovery of that
  // shard restores the newest durably settled balances.
  Shard& shard0 = *shards_[0];
  std::lock_guard<std::mutex> lock(shard0.mu);
  if (shard0.journal != nullptr && !shard0.journal_dead) {
    try {
      shard0.journal->append_credits(now, arbiter.state_bytes());
      shard0.journal->commit();
      shard0.ops_since_checkpoint += 1;
    } catch (...) {
      shard0.journal_dead = true;
      record_worker_error();
    }
  }
  return usage;
}

namespace {

double load_skew(const std::vector<double>& loads) {
  const double mx = *std::max_element(loads.begin(), loads.end());
  const double mn = *std::min_element(loads.begin(), loads.end());
  if (mn <= 1e-12) {
    return mx <= 1e-12 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  return mx / mn;
}

}  // namespace

ShardRebalanceReport ShardedDispatcher::rebalance_shards(
    Time now, const ShardRebalanceConfig& config) {
  require_quiescent();
  ShardRebalanceReport report;
  if (shards_.size() < 2) {
    report.skew_before = report.skew_after = 1.0;
    return report;
  }

  std::vector<double> loads(shards_.size(), 0.0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    loads[s] = shards_[s]->dispatcher->total_active_load();
  }
  report.skew_before = load_skew(loads);

  while (report.moves < config.max_moves) {
    const std::size_t src = static_cast<std::size_t>(
        std::max_element(loads.begin(), loads.end()) - loads.begin());
    const std::size_t dst = static_cast<std::size_t>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    const double gap = loads[src] - loads[dst];
    if (gap < config.min_gap) break;
    if (loads[src] <= config.skew_ratio * loads[dst]) break;

    Shard& source = *shards_[src];
    Shard& dest = *shards_[dst];

    // Pick the largest active job that does not overshoot: moving more
    // than half the gap would just invert the skew.
    JobId local = kNoItem;
    JobId global = kNoItem;
    RVec size;
    Time expected = 0.0;
    TenantId tenant = kNoTenant;
    {
      std::lock_guard<std::mutex> lock(source.mu);
      const Dispatcher& d = *source.dispatcher;
      double best_l1 = 0.0;
      for (JobId j = 0; j < d.jobs_admitted(); ++j) {
        if (d.bin_of(j) == kNoBin) continue;
        const double l1 = d.items()[j].size.l1();
        if (l1 <= gap / 2.0 + 1e-12 && l1 > best_l1) {
          best_l1 = l1;
          local = j;
        }
      }
      if (local == kNoItem) break;  // only oversized jobs left
      global = source.global_of_local[local];
      size = d.items()[local].size;
      expected = d.items()[local].departure;  // still the advisory value
      tenant = d.items()[local].tenant;  // billing follows the job
    }

    // Depart on the source and make it durable BEFORE the destination
    // arrival exists anywhere: a crash between the two steps then loses
    // the arrival (the job recovers as departed) and can never resurrect
    // the job on both shards.
    {
      std::lock_guard<std::mutex> lock(source.mu);
      const Time t = std::max(now, source.dispatcher->last_event_time());
      source.dispatcher->depart(t, local);
      if (source.journal != nullptr && !source.journal_dead) {
        try {
          source.journal->append(persist::OpKind::kDepart, t, global);
          source.journal->commit();
          source.journal->sync();
        } catch (...) {
          source.journal_dead = true;
          record_worker_error();
        }
      }
      source.load_snapshot.store(source.dispatcher->total_active_load(),
                                 std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(dest.mu);
      const Time t = std::max(now, dest.dispatcher->last_event_time());
      const Time exp =
          expected > t ? expected : std::numeric_limits<Time>::infinity();
      const JobId dest_local =
          static_cast<JobId>(dest.dispatcher->jobs_admitted());
      RVec journal_size;
      const bool journal_op = dest.journal != nullptr && !dest.journal_dead;
      if (journal_op) journal_size = size;
      const double l1 = size.l1();
      dest.dispatcher->arrive(t, std::move(size), exp, tenant);
      dest.global_of_local.push_back(global);
      JobRec& rec = job_rec(global);
      rec.shard.store(static_cast<std::uint32_t>(dst),
                      std::memory_order_release);
      rec.local = dest_local;
      if (journal_op) {
        try {
          dest.journal->append(persist::OpKind::kArrive, t, global, exp,
                               &journal_size, kNoBin, false, tenant);
          dest.journal->commit();
        } catch (...) {
          dest.journal_dead = true;
          record_worker_error();
        }
      }
      dest.load_snapshot.store(dest.dispatcher->total_active_load(),
                               std::memory_order_relaxed);
      loads[src] -= l1;
      loads[dst] += l1;
      report.moved_volume += l1;
    }
    ++report.moves;
  }

  report.skew_after = load_skew(loads);
  return report;
}

}  // namespace dvbp::cloud
