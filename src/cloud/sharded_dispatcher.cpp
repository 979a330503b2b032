#include "cloud/sharded_dispatcher.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/serial.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"

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

/// A shard's usage hook, the one listener of its engine's Dispatcher. It
/// writes each job's admission record into the job table on every apply
/// and every replay alike, meters the shard's tenants, and carries both
/// across a checkpoint: the Items of the departed jobs this shard owns
/// (the live ones ride in the dispatcher state), then the tenant ledger.
class ShardedDispatcher::Listener final : public TenantUsageHook {
 public:
  Listener(ShardedDispatcher& service, std::uint32_t shard)
      : service_(service), shard_(shard) {
    if (service.options_.tenants > 0) {
      accountant_.emplace(service.options_.tenants);
    }
  }
  Listener(const Listener&) = delete;  // its engine holds its address
  Listener& operator=(const Listener&) = delete;

  tenancy::UsageAccountant* accountant() {
    return accountant_ ? &*accountant_ : nullptr;
  }

  void on_arrive(const Item& job, Time now, std::size_t open_bins) override {
    if (accountant_) accountant_->on_arrive(job, now, open_bins);
    claim(job);
  }
  void on_depart(const Item& job, Time now, std::size_t open_bins) override {
    if (accountant_) accountant_->on_depart(job, now, open_bins);
    claim(job);
  }
  void on_advance(Time now, std::size_t open_bins) override {
    if (accountant_) accountant_->on_advance(now, open_bins);
  }

  void save_state(serial::Writer& out) const override {
    const persist::DurableDispatcher& engine =
        *service_.shards_[shard_]->engine;
    const std::vector<BinId>& placed = engine.recorder().assignment();
    std::vector<const Item*> departed;
    for (JobId job = 0; job < placed.size(); ++job) {
      if (placed[job] == kNoBin || engine.dispatcher().job(job) != nullptr) {
        continue;
      }
      const JobRec& rec = service_.job_rec(job);
      if (rec.shard.load(std::memory_order_acquire) == shard_) {
        departed.push_back(&rec.item);
      }
    }
    out.u64(departed.size());
    for (const Item* item : departed) item->save_state(out);
    if (accountant_) accountant_->save_state(out);
  }

  void restore_state(serial::Reader& in) override {
    const std::uint64_t n = in.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      claim(Item::restore_state(in, service_.dim_));
    }
    // Tenancy checkpoints end with the shard accountant's ledger.
    if (in.done()) return;
    if (!accountant_) {
      throw persist::PersistError(
          "ShardedDispatcher: shard checkpoint carries tenant state but "
          "tenancy is off (set ShardedOptions::tenants)");
    }
    accountant_->restore_state(in);
  }

 private:
  /// `job` is now the job's record, on this shard.
  void claim(const Item& job) {
    JobRec& rec = service_.job_slot(job.id);
    rec.item = job;
    rec.shard.store(shard_, std::memory_order_release);
  }

  ShardedDispatcher& service_;
  std::uint32_t shard_;
  std::optional<tenancy::UsageAccountant> accountant_;
};

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
  if (!options_.journal_dir.empty()) {
    refuse_orphan_shards(options_.journal_dir, options_.shards);
  }

  // Each shard's engine recovers its directory as it is built -- each
  // shard independently, no cross-shard coordination -- and its listener
  // writes what it replays into the job table. Runs before the workers
  // start, so recovery needs no locks.
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
    shard->listener =
        std::make_unique<Listener>(*this, static_cast<std::uint32_t>(s));
    persist::DurableOptions durable;
    if (!options_.journal_dir.empty()) {
      durable.dir = options_.journal_dir + "/shard-" + std::to_string(s);
    }
    durable.fsync = options_.fsync;
    durable.fsync_interval_ops = options_.fsync_interval_ops;
    durable.checkpoint_every = options_.checkpoint_every;
    durable.metrics = options_.metrics;
    durable.observer = shard->observer.get();
    durable.usage_hook = shard->listener.get();
    shard->engine = std::make_unique<persist::DurableDispatcher>(
        dim_, *shard->policy, std::move(durable), options_.bin_capacity);
    shard->load_snapshot.store(shard->engine->dispatcher().total_active_load(),
                               std::memory_order_relaxed);
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
  rebuild_job_table();
  // Workers start only after every shard is fully constructed.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { worker_loop(s); });
  }
}

ShardedDispatcher::JobRec& ShardedDispatcher::job_slot(std::uint64_t job) {
  if (job >= static_cast<std::uint64_t>(kMaxChunks) * kJobChunkSize) {
    throw std::length_error("ShardedDispatcher: job id space exhausted");
  }
  const std::size_t chunk = job >> kJobChunkBits;
  if (job_chunks_[chunk].load(std::memory_order_acquire) == nullptr) {
    std::lock_guard<std::mutex> lock(chunk_mu_);
    if (job_chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
      job_chunks_[chunk].store(new JobRec[kJobChunkSize],
                               std::memory_order_release);
    }
  }
  return job_rec(static_cast<JobId>(job));
}

// After recovery the job table holds what the shards' listeners restored
// and replayed. A job live on a shard belongs to that shard, whatever
// other shards' histories say of it: a cross-shard move departs the job on
// its source and re-admits it on its destination. A job live nowhere
// belongs to the shard whose history names it; a completed journaled
// rebalance pass checkpoints every shard it touched, so after it only the
// job's last shard does.
void ShardedDispatcher::rebuild_job_table() {
  std::uint64_t next = 0;
  for (const auto& shard : shards_) {
    next = std::max<std::uint64_t>(
        next, shard->engine->recorder().assignment().size());
  }
  if (next == 0) return;  // cold start
  next_job_.store(next, std::memory_order_release);
  // Default every recovered id to "departed": an id whose arrival frame
  // did not survive on its shard (it was admitted but lost in the crash)
  // must make a stale depart() fail cleanly.
  for (std::uint64_t id = 0; id < next; ++id) {
    job_slot(id).departed.store(true, std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->engine->dispatcher().for_each_job(
        [&](const Dispatcher::LiveJob& job) {
          JobRec& rec = job_rec(job.item.id);
          rec.shard.store(static_cast<std::uint32_t>(s),
                          std::memory_order_relaxed);
          rec.departed.store(false, std::memory_order_relaxed);
          rec.item = job.item;
        });
  }
  // Round-robin's counter advanced once per admission in the original
  // run; rendezvous is a pure function and least-usage re-derives from
  // the load snapshots the shards refreshed after recovering.
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
  JobRec& rec = job_slot(id);
  const auto job = static_cast<JobId>(id);
  if (router_->kind() != RouterKind::kLeastUsage) {
    target = router_->route(job, {});
  }
  rec.shard.store(static_cast<std::uint32_t>(target),
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
  // it is never applied, like a recovered-but-lost id.
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
  persist::DurableDispatcher& engine = *shard.engine;
  std::size_t since_snapshot = 0;
  // Group commit: the whole drained batch goes down with one write(2) and
  // at most one fsync.
  engine.begin_batch();
  for (Op& op : batch) {
    if (op.sink != nullptr) {
      completions.push_back({std::move(op.sink), op.cookie, op.job});
    }
    try {
      // Per-shard monotone clamp: multiple producers can interleave, so an
      // op's timestamp may lag the shard clock; it is applied at the clock
      // (the way an ingestion front-end stamps requests). Single-producer
      // feeds are monotone and never clamped.
      const Time t = std::max(op.time, engine.dispatcher().last_event_time());
      if (op.kind == Op::Kind::kArrive) {
        if (router_->kind() == RouterKind::kLeastUsage) {
          shard.pending_arrivals.fetch_sub(1, std::memory_order_relaxed);
        }
        // The advisory departure can be overtaken by the clamp; it is only
        // a clairvoyant hint, so degrade it to "unknown" rather than throw.
        // The journal records exactly what arrive() is called with --
        // post-clamp time, degraded hint -- so replay reproduces the run
        // bit-exactly by passing the frame verbatim.
        const Time expected =
            op.expected_departure > t
                ? op.expected_departure
                : std::numeric_limits<Time>::infinity();
        engine.arrive(t, Item(op.job, t, expected, std::move(op.size),
                              op.tenant));
      } else {
        engine.depart(t, op.job);
      }
    } catch (...) {
      // A failure here is a service bug (producer-side validation screens
      // caller mistakes) or a dead journal; remember the first error for
      // drain() and keep counting ops so nobody deadlocks waiting for them.
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
      shard.load_snapshot.store(engine.dispatcher().total_active_load(),
                                std::memory_order_relaxed);
    }
  }
  shard.load_snapshot.store(engine.dispatcher().total_active_load(),
                            std::memory_order_relaxed);
  try {
    engine.end_batch();
  } catch (...) {
    record_worker_error();
  }
}

void ShardedDispatcher::record_worker_error() {
  std::lock_guard<std::mutex> error_lock(error_mu_);
  if (!worker_error_) worker_error_ = std::current_exception();
}

ShardedDispatcher::Shard& ShardedDispatcher::shard_at(
    std::size_t shard, const char* caller) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(std::string("ShardedDispatcher::") + caller +
                                ": bad shard");
  }
  return *shards_[shard];
}

const persist::RecoveryReport& ShardedDispatcher::shard_recovery(
    std::size_t shard) const {
  return shard_at(shard, "shard_recovery").engine->recovery();
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
    // The worker drives the engine only under shard.mu, so holding it
    // here excludes concurrent appends.
    std::lock_guard<std::mutex> lock(shard.mu);
    try {
      shard.engine->flush();
    } catch (...) {
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
    total += shard->engine->dispatcher().open_bins();
  }
  return total;
}

std::size_t ShardedDispatcher::bins_opened() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->engine->dispatcher().bins_opened();
  }
  return total;
}

std::size_t ShardedDispatcher::jobs_active() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->engine->dispatcher().jobs_active();
  }
  return total;
}

double ShardedDispatcher::shard_cost_so_far(std::size_t shard,
                                            Time at) const {
  const Shard& s = shard_at(shard, "shard_cost_so_far");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.engine->dispatcher().cost_so_far(at);
}

std::size_t ShardedDispatcher::shard_open_bins(std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_open_bins");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.engine->dispatcher().open_bins();
}

std::size_t ShardedDispatcher::shard_bins_opened(std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_bins_opened");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.engine->dispatcher().bins_opened();
}

std::size_t ShardedDispatcher::shard_jobs_admitted(std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_jobs_admitted");
  std::lock_guard<std::mutex> lock(s.mu);
  return s.engine->dispatcher().jobs_admitted();
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
  return shard_recorder(shard).packing();
}

Packing ShardedDispatcher::snapshot() const {
  require_quiescent();
  // Bin ids are renumbered shard-major: shard s's bins keep their relative
  // opening order and start at its offset. Each job's bin comes from its
  // final owner: a cross-shard move leaves the job in both histories.
  std::vector<BinId> assignment(jobs_admitted(), kNoBin);
  std::vector<BinRecord> bins;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto offset = static_cast<BinId>(bins.size());
    const PackingRecorder& recorder = shard->engine->recorder();
    for (const BinRecord& rec : recorder.bins()) {
      bins.push_back(rec);
      bins.back().id += offset;
    }
    const std::vector<BinId>& placed = recorder.assignment();
    for (JobId job = 0; job < placed.size(); ++job) {
      if (placed[job] != kNoBin &&
          shards_[job_rec(job).shard.load(std::memory_order_acquire)] ==
              shard) {
        assignment[job] = placed[job] + offset;
      }
    }
  }
  return Packing(std::move(assignment), std::move(bins));
}

const Item& ShardedDispatcher::job_item(JobId job) const {
  require_quiescent();
  const Item& item = checked_job_rec(job, "job_item").item;
  if (item.id == kNoItem) {
    throw std::invalid_argument(
        "ShardedDispatcher::job_item: job was never applied");
  }
  return item;
}

const Dispatcher& ShardedDispatcher::shard_dispatcher(
    std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_dispatcher");
  require_quiescent();
  return s.engine->dispatcher();
}

const PackingRecorder& ShardedDispatcher::shard_recorder(
    std::size_t shard) const {
  const Shard& s = shard_at(shard, "shard_recorder");
  require_quiescent();
  return s.engine->recorder();
}

const tenancy::UsageAccountant* ShardedDispatcher::shard_accountant(
    std::size_t shard) const {
  return shard_at(shard, "shard_accountant").listener->accountant();
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
    tenancy::UsageAccountant& accountant = *shard.listener->accountant();
    accountant.on_advance(std::max(now, accountant.last_event()),
                          shard.engine->dispatcher().open_bins());
    const std::vector<double> cut = accountant.cut_epoch();
    for (std::uint32_t t = 0; t < options_.tenants; ++t) usage[t] += cut[t];
  }
  arbiter.settle(now, usage);
  // One authoritative credit frame, journaled on shard 0: recovery of that
  // shard restores the newest durably settled balances.
  Shard& shard0 = *shards_[0];
  std::lock_guard<std::mutex> lock(shard0.mu);
  shard0.engine->settle_credits(now, arbiter.state_bytes());
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
    loads[s] = shards_[s]->engine->dispatcher().total_active_load();
  }
  report.skew_before = load_skew(loads);

  std::vector<bool> touched(shards_.size(), false);
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
    // than half the gap would just invert the skew. Ties go to the job the
    // shard admitted first.
    JobId job = kNoItem;
    RVec size;
    Time expected = 0.0;
    TenantId tenant = kNoTenant;
    {
      std::lock_guard<std::mutex> lock(source.mu);
      const Item* pick = nullptr;
      double best_l1 = 0.0;
      std::uint64_t best_rank = 0;
      source.engine->dispatcher().for_each_job(
          [&](const Dispatcher::LiveJob& live) {
            const double l1 = live.item.size.l1();
            if (l1 > gap / 2.0 + 1e-12 || l1 < best_l1) return;
            if (l1 == best_l1 && (pick == nullptr || live.rank > best_rank)) {
              return;
            }
            pick = &live.item;
            best_l1 = l1;
            best_rank = live.rank;
          });
      if (pick == nullptr) break;  // only oversized jobs left
      job = pick->id;
      size = pick->size;
      expected = pick->departure;  // still the advisory value
      tenant = pick->tenant;  // billing follows the job
    }

    // Depart on the source and make it durable BEFORE the destination
    // arrival exists anywhere: a crash between the two steps then loses
    // the arrival (the job recovers as departed) and can never resurrect
    // the job on both shards.
    {
      std::lock_guard<std::mutex> lock(source.mu);
      const Time t =
          std::max(now, source.engine->dispatcher().last_event_time());
      source.engine->depart(t, job);
      source.engine->flush();
      source.load_snapshot.store(
          source.engine->dispatcher().total_active_load(),
          std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(dest.mu);
      const Time t = std::max(now, dest.engine->dispatcher().last_event_time());
      const Time exp =
          expected > t ? expected : std::numeric_limits<Time>::infinity();
      const double l1 = size.l1();
      dest.engine->arrive(t, Item(job, t, exp, std::move(size), tenant));
      dest.load_snapshot.store(dest.engine->dispatcher().total_active_load(),
                               std::memory_order_relaxed);
      loads[src] -= l1;
      loads[dst] += l1;
      report.moved_volume += l1;
    }
    touched[src] = touched[dst] = true;
    ++report.moves;
  }

  // A moved job that later departs must be named by its last shard's
  // history only (see rebuild_job_table): checkpoint every touched shard,
  // so no move's source-side depart stays in a journal tail.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!touched[s]) continue;
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    shards_[s]->engine->checkpoint();
  }
  report.skew_after = load_skew(loads);
  return report;
}

}  // namespace dvbp::cloud
